// Bit-exact JSON codecs for shard result transport.
//
// A shard worker serializes each job's RunResult (and its optional
// telemetry snapshot) to one JSONL line; the gatherer decodes them and
// feeds ExperimentPlan::finish_with, so the aggregates it produces are
// the *same doubles* a serial in-process run would aggregate.  That
// demands a lossless double transport: every floating-point field
// travels as its IEEE-754 bit pattern (json::Writer::hex), never as
// decimal text.  Counters travel as decimal u64, enums as their integer
// values (with a wire version bump required to change any of it).
//
// Telemetry uses wire v2's compact layout (see shard_codec.cpp).  The
// encoders write through json::Writer and return the record's text as a
// raw json::Value, so no tree is built on the way out; the decoders read
// the tree json::parse builds.  The decoder rejects any value it cannot
// represent exactly (an out-of-range type, help index, event socket or
// code, or dump socket; a malformed label list or hex double, upper-case
// digits included) and any unknown or repeated member of an object with
// optional ones (the run result, the telemetry snapshot, a metric
// sample) with a std::runtime_error, never truncating or dropping.
#pragma once

#include "common/json.h"
#include "harness/runner.h"

namespace dufp::harness {

/// RunResult -> its one-line wire text (json::Value::make_raw).
json::Value encode_run_result(const RunResult& result);

/// Inverse of encode_run_result; throws std::runtime_error naming the
/// offending field on malformed input.
RunResult decode_run_result(const json::Value& v);

}  // namespace dufp::harness
