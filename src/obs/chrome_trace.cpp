#include "obs/chrome_trace.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace acc::obs {

namespace {

constexpr std::int64_t kPid = 0;
constexpr std::int64_t kCountersTid = 0;  // component tracks start at 1

json::Object meta_event(const std::string& name, std::int64_t tid,
                        const std::string& label) {
  json::Object e;
  e["name"] = name;
  e["ph"] = "M";
  e["pid"] = kPid;
  e["tid"] = tid;
  json::Object args;
  args["name"] = label;
  e["args"] = std::move(args);
  return e;
}

json::Object counter_event(const std::string& series, sim::Cycle ts,
                           std::int64_t value) {
  json::Object e;
  e["name"] = series;
  e["ph"] = "C";
  e["pid"] = kPid;
  e["tid"] = kCountersTid;
  e["ts"] = ts;
  json::Object args;
  args["value"] = value;
  e["args"] = std::move(args);
  return e;
}

}  // namespace

json::Value chrome_trace_doc(const sim::TraceLog& log) {
  json::Array events;
  events.emplace_back(meta_event("process_name", kCountersTid, "accshare-sim"));
  events.emplace_back(meta_event("thread_name", kCountersTid, "counters"));

  // Track (tid) per source, assigned in first-appearance order. The
  // TraceLog is deterministic for a given run, so so is this mapping.
  std::map<std::string, std::int64_t> tids;
  for (const sim::TraceEvent& e : log.events()) {
    if (tids.find(e.source) != tids.end()) continue;
    const auto tid = static_cast<std::int64_t>(tids.size()) + 1;
    tids.emplace(e.source, tid);
    events.emplace_back(meta_event("thread_name", tid, e.source));
  }

  // Open reconfig window per source (reconfig.start awaiting its done).
  std::map<std::string, sim::Cycle> open_reconfig;
  // Open mode-change transition per source (the control plane's
  // modechange.start/done pair, source "ctrl").
  std::map<std::string, sim::Cycle> open_modechange;
  std::int64_t blocks_done = 0;
  std::int64_t faults_seen = 0;

  for (const sim::TraceEvent& e : log.events()) {
    const std::int64_t tid = tids.at(e.source);
    json::Object inst;
    inst["name"] = e.event;
    inst["ph"] = "i";
    inst["s"] = "t";  // thread-scoped instant
    inst["pid"] = kPid;
    inst["tid"] = tid;
    inst["ts"] = e.cycle;
    json::Object args;
    args["value"] = e.value;
    inst["args"] = std::move(args);
    events.emplace_back(std::move(inst));

    // A done event closes its source's open window into a duration bar.
    const auto close_window = [&](std::map<std::string, sim::Cycle>& open,
                                  const char* name) {
      const auto it = open.find(e.source);
      if (it == open.end()) return;
      json::Object dur;
      dur["name"] = name;
      dur["ph"] = "X";
      dur["pid"] = kPid;
      dur["tid"] = tid;
      dur["ts"] = it->second;
      dur["dur"] = e.cycle - it->second;
      json::Object dargs;
      dargs["stream"] = e.value;
      dur["args"] = std::move(dargs);
      events.emplace_back(std::move(dur));
      open.erase(it);
    };
    if (e.event == "reconfig.start") {
      open_reconfig[e.source] = e.cycle;
    } else if (e.event == "reconfig.done") {
      close_window(open_reconfig, "reconfig");
    } else if (e.event == "modechange.start") {
      open_modechange[e.source] = e.cycle;
    } else if (e.event == "modechange.done") {
      close_window(open_modechange, "modechange");
    } else if (e.event == "block.done") {
      events.emplace_back(counter_event("blocks.done", e.cycle, ++blocks_done));
    } else if (e.event.rfind("fault.", 0) == 0) {
      events.emplace_back(counter_event("faults", e.cycle, ++faults_seen));
    }
  }

  // CSV emits a truncation marker row; the Chrome export marks the clip
  // with a global instant so Perfetto users see it too.
  if (log.truncated()) {
    const sim::Cycle last =
        log.events().empty() ? 0 : log.events().back().cycle;
    json::Object trunc;
    trunc["name"] = "trace.truncated";
    trunc["ph"] = "i";
    trunc["s"] = "g";  // global-scoped instant: spans every track
    trunc["pid"] = kPid;
    trunc["tid"] = kCountersTid;
    trunc["ts"] = last;
    json::Object args;
    args["dropped"] = static_cast<std::int64_t>(log.dropped());
    trunc["args"] = std::move(args);
    events.emplace_back(std::move(trunc));
  }

  json::Object doc;
  doc["displayTimeUnit"] = "ms";
  doc["traceEvents"] = std::move(events);
  return doc;
}

std::string chrome_trace_json(const sim::TraceLog& log) {
  return chrome_trace_doc(log).pretty() + "\n";
}

}  // namespace acc::obs
