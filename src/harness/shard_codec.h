// Bit-exact JSON codecs for shard result transport.
//
// A shard worker serializes each job's RunResult (and its optional
// telemetry snapshot) to one JSONL line; the gatherer decodes them and
// feeds ExperimentPlan::finish_with, so the aggregates it produces are
// the *same doubles* a serial in-process run would aggregate.  That
// demands a lossless double transport: every floating-point field
// travels as its IEEE-754 bit pattern (json::double_to_hex), never as
// decimal text.  Counters travel as decimal u64, enums as their integer
// values (with a wire version bump required to change any of it).
//
// Telemetry uses wire v2's compact layout (see shard_codec.cpp).  The
// decoder rejects any value it cannot represent exactly (an out-of-range
// type, help index, event socket or code, or dump socket; a malformed
// label list or hex double) with a std::runtime_error, never truncating.
#pragma once

#include "common/json.h"
#include "harness/runner.h"

namespace dufp::harness {

/// RunResult -> JSON value (single line once dumped).
json::Value encode_run_result(const RunResult& result);

/// Inverse of encode_run_result; throws std::runtime_error naming the
/// offending field on malformed input.
RunResult decode_run_result(const json::Value& v);

/// Telemetry snapshot codec (used inside the RunResult codec; exposed
/// for tests).
json::Value encode_snapshot(const telemetry::TelemetrySnapshot& snap);
telemetry::TelemetrySnapshot decode_snapshot(const json::Value& v);

}  // namespace dufp::harness
