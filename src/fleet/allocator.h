// Pluggable fleet budget allocators: how an inner node of the budget
// tree (the cluster over its racks, a rack over its nodes) splits its
// power budget among its children each epoch.
//
// Mirrors the core::PolicyRegistry idiom exactly: a string-keyed
// registry is the single authority on which allocators exist and what
// they are called; every layer (FleetSpec validation, the fleet_scaling
// bench, the budget tree itself) resolves names here, so adding an
// allocator is one registration and zero switch statements (see
// DESIGN.md, "Adding a fleet allocator in under 50 lines").
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dufp::fleet {

/// What one child of a tree node reports upward before an epoch's split.
struct ChildSignal {
  double demand_w = 0.0;  ///< what the child wants this epoch
  double min_w = 0.0;     ///< hard floor of the child's allocation
  double max_w = 0.0;     ///< hard ceiling of the child's allocation
  /// How starved the child was last epoch: 1 - granted/demanded, in
  /// [0, 1] (0 on the first epoch and for fully satisfied children).
  double depression = 0.0;
};

/// One inner tree node's splitting strategy.  Instances may be stateful
/// (e.g. smoothing across epochs) — the budget tree creates one per
/// inner node and calls it once per epoch, in deterministic order.
class FleetAllocator {
 public:
  virtual ~FleetAllocator() = default;

  /// Splits `budget_w` among `children`.  The contract the budget tree
  /// enforces after every call (a violation is a std::logic_error — a
  /// broken allocator, never tolerable):
  ///   - out.size() == children.size()
  ///   - out[i] in [children[i].min_w, children[i].max_w]
  ///   - sum(out) <= budget_w (+ float slack)
  /// Callers guarantee budget_w >= sum of the children's min_w.
  virtual std::vector<double> allocate(
      double budget_w, const std::vector<ChildSignal>& children) = 0;
};

class FleetAllocatorRegistry {
 public:
  using Factory = std::function<std::unique_ptr<FleetAllocator>()>;

  struct Entry {
    /// Canonical name: display form, CSV cell, telemetry label and wire
    /// format all in one.  Lookups are case-insensitive.
    std::string name;
    std::string description;
    /// Alternate spellings ("fastcap" vs "fair"); matched like the name.
    std::vector<std::string> aliases;
    Factory factory;
  };

  /// The process-wide registry, preloaded with the built-in allocators
  /// in a fixed order.  Immutable after first use by convention — tests
  /// exercising add() build their own local instances.
  static FleetAllocatorRegistry& instance();

  FleetAllocatorRegistry() = default;

  /// Registers an allocator.  Throws std::invalid_argument when the name
  /// or an alias (case-insensitively) collides with an existing entry,
  /// or when the entry has no name or no factory.
  void add(Entry entry);

  /// Case-insensitive lookup by name or alias; nullptr when unknown.
  const Entry* find(std::string_view name) const;
  bool contains(std::string_view name) const { return find(name) != nullptr; }

  /// Like find(), but throws std::invalid_argument listing every
  /// registered name when the lookup fails.
  const Entry& at(std::string_view name) const;

  /// Canonical names in registration order.
  std::vector<std::string> names() const;

  /// "proportional, fastcap, ..." — embedded in lookup error messages.
  std::string known_names() const;

  /// Builds an allocator instance.  Throws like at() on unknown names.
  std::unique_ptr<FleetAllocator> create(std::string_view name) const;

 private:
  std::vector<Entry> entries_;
};

/// Built-in registrations; instance() calls this.  Exposed so tests can
/// populate a fresh local registry the same way.
void register_builtin_allocators(FleetAllocatorRegistry& registry);

/// Repair helper shared by allocators: clamps each entry into its
/// child's [min_w, max_w] and, if the clamped sum still exceeds
/// `budget_w`, scales every allocation's share above its floor down
/// uniformly.  The result always satisfies the allocate() contract.
std::vector<double> clamp_to_budget(double budget_w,
                                    const std::vector<ChildSignal>& children,
                                    std::vector<double> alloc);

}  // namespace dufp::fleet
