#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "e2e.hpp"

namespace e2e {

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

bool Report::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

double Report::get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      return m.value;
    }
  }
  throw std::runtime_error("metric not recorded: " + name);
}

void Report::fail(const std::string& what) {
  ++failed_;
  constexpr size_t kKeep = 20;
  if (failures_.size() < kKeep) {
    failures_.push_back(what);
    std::fprintf(stderr, "[e2e] FAILED: %s\n", what.c_str());
  }
}

void Report::absorb_tally(const Report& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  failures_.insert(failures_.end(), other.failures_.begin(),
                   other.failures_.end());
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

namespace {

/// Layer of every span name the breakdown attributes; other spans are
/// transparent (their time stays with the enclosing layer).
const std::map<std::string, std::string>& layer_of_span() {
  static const std::map<std::string, std::string> layers = {
      {"filter.apply", "filter"},    {"filter.vjp", "vjp"},
      {"model.forward", "forward"},  {"model.backward", "backward"},
      {"plan.replay", "replay"},     {"plan.compile", "compile"},
      {"attack.run", "attack"},      {"attack.iteration", "attack"},
  };
  return layers;
}

struct Node {
  const fademl::obs::TraceEvent* event = nullptr;
  double end_us = 0.0;
  std::string layer;
  bool root = false;
  bool in_root = false;
  double child_us = 0.0;
};

}  // namespace

LayerBreakdown analyze_spans(const std::vector<fademl::obs::TraceEvent>& events,
                             const std::vector<std::string>& root_names) {
  std::map<uint32_t, std::vector<Node>> by_thread;
  for (const fademl::obs::TraceEvent& e : events) {
    Node node;
    node.event = &e;
    node.end_us = e.ts_us + e.dur_us;
    if (std::find(root_names.begin(), root_names.end(), e.name) !=
        root_names.end()) {
      node.root = true;
      node.layer = "other";
    } else if (auto it = layer_of_span().find(e.name);
               it != layer_of_span().end()) {
      node.layer = it->second;
    } else {
      continue;
    }
    by_thread[e.tid].push_back(std::move(node));
  }

  // Spans of one thread nest, so after sorting by start (longest first on
  // ties) the enclosing span of each one is the innermost open span that
  // still contains it. Containment, not the recorded depth, decides:
  // spans the analysis skips leave gaps in the depth numbering.
  constexpr double kSlackUs = 0.01;
  LayerBreakdown out;
  for (auto& [tid, nodes] : by_thread) {
    std::sort(nodes.begin(), nodes.end(), [](const Node& a, const Node& b) {
      if (a.event->ts_us != b.event->ts_us) {
        return a.event->ts_us < b.event->ts_us;
      }
      return a.event->dur_us > b.event->dur_us;
    });
    std::vector<Node*> open;
    for (Node& node : nodes) {
      while (!open.empty() &&
             !(node.event->ts_us >= open.back()->event->ts_us - kSlackUs &&
               node.end_us <= open.back()->end_us + kSlackUs)) {
        open.pop_back();
      }
      Node* parent = open.empty() ? nullptr : open.back();
      node.in_root = node.root || (parent != nullptr && parent->in_root);
      if (parent != nullptr) {
        parent->child_us += node.event->dur_us;
      }
      open.push_back(&node);
    }
    for (const Node& node : nodes) {
      if (!node.in_root) {
        continue;
      }
      const double self_ms = (node.event->dur_us - node.child_us) / 1000.0;
      out.self_ms[node.layer] += self_ms;
      out.durations_ms[node.event->name].push_back(node.event->dur_us /
                                                   1000.0);
      if (node.root) {
        out.busy_ms += node.event->dur_us / 1000.0;
      }
    }
  }
  return out;
}

std::vector<double> durations_within(
    const std::vector<fademl::obs::TraceEvent>& events,
    const std::string& window, const std::string& name) {
  const fademl::obs::TraceEvent* w = nullptr;
  for (const fademl::obs::TraceEvent& e : events) {
    if (e.name == window) {
      w = &e;
    }
  }
  std::vector<double> out;
  if (w == nullptr) {
    return out;
  }
  for (const fademl::obs::TraceEvent& e : events) {
    if (e.name == name && e.ts_us >= w->ts_us &&
        e.ts_us <= w->ts_us + w->dur_us) {
      out.push_back(e.dur_us / 1000.0);
    }
  }
  return out;
}

}  // namespace e2e
