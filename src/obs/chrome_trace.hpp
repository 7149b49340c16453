// Chrome trace-event exporter: renders a sim::TraceLog as the JSON Array
// Format that chrome://tracing and Perfetto load directly (see
// docs/observability.md for the how-to).
//
// Rendering rules:
//   - every trace source (component name) becomes its own track (tid),
//     labelled via a thread_name metadata event; tids are assigned in
//     first-appearance order, which is deterministic because the TraceLog
//     itself is;
//   - every TraceEvent becomes a thread-scoped instant event ("ph":"i") at
//     its cycle, with the payload in args.value — instants on one track are
//     monotone in ts because the log is recorded in cycle order;
//   - reconfig.start/reconfig.done and modechange.start/modechange.done
//     pairs additionally become complete duration events ("ph":"X") so
//     context-switch and mode-change windows render as bars;
//   - block.done and fault.* events feed cumulative counter series
//     ("ph":"C") on a dedicated counters track;
//   - a TRUNCATED log (events dropped at the TraceLog cap) ends with a
//     global instant event named "trace.truncated" carrying the dropped
//     count — the Chrome-format twin of the CSV truncation marker row, so
//     a clipped trace is visibly marked in both formats.
//
// Timestamps are simulation cycles emitted in the "ts" microsecond field:
// 1 cycle renders as 1 us, which keeps Perfetto's zoom ergonomics sane for
// cycle-accurate traces.
#pragma once

#include <string>

#include "common/json.hpp"
#include "sim/trace.hpp"

namespace acc::obs {

/// The trace document as a JSON value ({"traceEvents": [...], ...}).
[[nodiscard]] json::Value chrome_trace_doc(const sim::TraceLog& log);

/// chrome_trace_doc serialized for writing to a .json file.
[[nodiscard]] std::string chrome_trace_json(const sim::TraceLog& log);

}  // namespace acc::obs
