#include "telemetry/export.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <unordered_map>

namespace dlr::telemetry {

namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

/// Position just past `"key":` in `line`, or npos.
std::size_t after_key(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  return pos == std::string::npos ? std::string::npos : pos + needle.size();
}

bool parse_string_at(const std::string& s, std::size_t pos, std::string& out,
                     std::size_t* end = nullptr) {
  if (pos >= s.size() || s[pos] != '"') return false;
  out.clear();
  for (std::size_t i = pos + 1; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '\\' && i + 1 < s.size()) {
      const char n = s[++i];
      switch (n) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        default: out += n; break;  // \" \\ \/ and anything else: literal
      }
    } else if (c == '"') {
      if (end) *end = i + 1;
      return true;
    } else {
      out += c;
    }
  }
  return false;
}

bool field_str(const std::string& line, const std::string& key, std::string& out) {
  const auto pos = after_key(line, key);
  return pos != std::string::npos && parse_string_at(line, pos, out);
}

bool field_num(const std::string& line, const std::string& key, double& out) {
  const auto pos = after_key(line, key);
  if (pos == std::string::npos) return false;
  out = std::strtod(line.c_str() + pos, nullptr);
  return true;
}

/// 64-bit integer field, parsed without a double round-trip: span/trace ids
/// carry random high bits, and a double's 53-bit mantissa would corrupt them.
bool field_u64(const std::string& line, const std::string& key, std::uint64_t& out) {
  const auto pos = after_key(line, key);
  if (pos == std::string::npos) return false;
  out = std::strtoull(line.c_str() + pos, nullptr, 10);
  return true;
}

/// Parse the flat numeric object `{"k":1,"k2":2.5}` starting at `pos`.
void parse_attrs_at(const std::string& s, std::size_t pos,
                    std::vector<std::pair<std::string, double>>& out) {
  if (pos >= s.size() || s[pos] != '{') return;
  std::size_t i = pos + 1;
  while (i < s.size() && s[i] != '}') {
    std::string key;
    std::size_t after = 0;
    if (!parse_string_at(s, i, key, &after)) break;
    i = after;
    if (i >= s.size() || s[i] != ':') break;
    char* num_end = nullptr;
    const double v = std::strtod(s.c_str() + i + 1, &num_end);
    out.emplace_back(std::move(key), v);
    i = static_cast<std::size_t>(num_end - s.c_str());
    if (i < s.size() && s[i] == ',') ++i;
  }
}

/// Parse the flat numeric array `[1,2.5,...]` starting at `pos`; returns the
/// parsed values (empty array parses to empty).
template <typename T>
void parse_num_array_at(const std::string& s, std::size_t pos, std::vector<T>& out) {
  if (pos >= s.size() || s[pos] != '[') return;
  std::size_t i = pos + 1;
  while (i < s.size() && s[i] != ']') {
    char* num_end = nullptr;
    const double v = std::strtod(s.c_str() + i, &num_end);
    if (num_end == s.c_str() + i) break;
    out.push_back(static_cast<T>(v));
    i = static_cast<std::size_t>(num_end - s.c_str());
    if (i < s.size() && s[i] == ',') ++i;
  }
}

void append_attrs_json(std::string& out, const std::vector<std::pair<std::string, double>>& attrs) {
  out += "{";
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    if (i) out += ",";
    out += "\"";
    out += json_escape(attrs[i].first);
    out += "\":";
    out += fmt_double(attrs[i].second);
  }
  out += "}";
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string to_text(const Snapshot& snap, const std::vector<Span>& spans) {
  std::string out = "== telemetry summary ==\n";
  std::size_t width = 0;
  for (const auto& c : snap.counters) width = std::max(width, c.name.size());
  for (const auto& g : snap.gauges) width = std::max(width, g.name.size());

  if (!snap.counters.empty()) {
    out += "counters:\n";
    for (const auto& c : snap.counters)
      out += "  " + c.name + std::string(width - c.name.size() + 2, ' ') + fmt_u64(c.value) +
             "\n";
  }
  if (!snap.gauges.empty()) {
    out += "gauges:\n";
    for (const auto& g : snap.gauges)
      out += "  " + g.name + std::string(width - g.name.size() + 2, ' ') +
             fmt_double(g.value) + "\n";
  }
  if (!snap.histograms.empty()) {
    out += "histograms:\n";
    for (const auto& h : snap.histograms)
      out += "  " + h.name + "  count=" + fmt_u64(h.count) + " sum=" + fmt_double(h.sum) +
             "\n";
  }

  if (!spans.empty()) {
    out += "spans (completion order, indent = nesting):\n";
    std::unordered_map<std::uint64_t, const Span*> by_id;
    for (const auto& s : spans) by_id[s.id] = &s;
    const std::size_t cap = 200;
    for (std::size_t i = 0; i < spans.size() && i < cap; ++i) {
      const Span& s = spans[i];
      std::size_t depth = 0;
      for (auto it = by_id.find(s.parent); it != by_id.end();
           it = by_id.find(it->second->parent))
        ++depth;
      out += "  " + std::string(2 * depth, ' ') + s.label + "  " +
             fmt_double(s.duration_ms()) + " ms";
      for (const auto& [k, v] : s.attrs) out += "  " + k + "=" + fmt_double(v);
      out += "\n";
    }
    if (spans.size() > cap)
      out += "  ... " + fmt_u64(spans.size() - cap) + " more spans elided\n";
  }
  return out;
}

std::string to_jsonl(const ExportMeta& meta, const Snapshot& snap,
                     const std::vector<Span>& spans) {
  std::string out;
  out += "{\"type\":\"meta\",\"run\":\"" + json_escape(meta.run) + "\",\"telemetry\":\"" +
         (DLR_TELEMETRY_ENABLED ? "on" : "off") + "\"}\n";
  for (const auto& c : snap.counters)
    out += "{\"type\":\"counter\",\"name\":\"" + json_escape(c.name) +
           "\",\"value\":" + fmt_u64(c.value) + "}\n";
  for (const auto& g : snap.gauges)
    out += "{\"type\":\"gauge\",\"name\":\"" + json_escape(g.name) +
           "\",\"value\":" + fmt_double(g.value) + "}\n";
  for (const auto& h : snap.histograms) {
    out += "{\"type\":\"histogram\",\"name\":\"" + json_escape(h.name) +
           "\",\"count\":" + fmt_u64(h.count) + ",\"sum\":" + fmt_double(h.sum) +
           ",\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i) out += ",";
      out += fmt_double(h.bounds[i]);
    }
    out += "],\"buckets\":[";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i) out += ",";
      out += fmt_u64(h.buckets[i]);
    }
    out += "]}\n";
  }
  for (const auto& s : spans) {
    out += "{\"type\":\"span\",\"id\":" + fmt_u64(s.id) + ",\"parent\":" + fmt_u64(s.parent) +
           ",\"trace\":" + fmt_u64(s.trace_id) + ",\"label\":\"" + json_escape(s.label) +
           "\",\"start_ns\":" + fmt_u64(static_cast<std::uint64_t>(s.start_ns)) +
           ",\"dur_ms\":" + fmt_double(s.duration_ms()) + ",\"attrs\":";
    append_attrs_json(out, s.attrs);
    out += "}\n";
  }
  return out;
}

std::string to_chrome_trace(const std::vector<Span>& spans) {
  return to_chrome_trace(std::vector<ProcessSpans>{ProcessSpans{1, "", spans}});
}

std::string to_chrome_trace(const std::vector<ProcessSpans>& processes) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& proc : processes) {
    const std::string pid = std::to_string(proc.pid);
    if (!proc.name.empty()) {
      if (!first) out += ",";
      first = false;
      out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + pid +
             ",\"args\":{\"name\":\"" + json_escape(proc.name) + "\"}}";
    }
    for (const auto& s : proc.spans) {
      if (!first) out += ",";
      first = false;
      out += "{\"name\":\"" + json_escape(s.label) + "\",\"ph\":\"X\",\"pid\":" + pid +
             ",\"tid\":1,\"ts\":" + fmt_double(static_cast<double>(s.start_ns) / 1e3) +
             ",\"dur\":" + fmt_double(static_cast<double>(s.end_ns - s.start_ns) / 1e3) +
             ",\"args\":";
      append_attrs_json(out, s.attrs);
      out += "}";
    }
  }
  out += "]}";
  return out;
}

bool export_global_jsonl(const std::string& path, const std::string& run_label) {
  const std::string body = to_jsonl(ExportMeta{run_label}, Registry::global().snapshot(), {});
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

Imported import_jsonl(const std::string& text) {
  Imported out;
  std::size_t start = 0;
  while (start < text.size()) {
    auto nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(start, nl - start);
    start = nl + 1;
    if (line.empty()) continue;

    std::string type;
    if (!field_str(line, "type", type)) continue;
    if (type == "meta") {
      field_str(line, "run", out.run);
    } else if (type == "counter") {
      std::string name;
      std::uint64_t v = 0;
      if (field_str(line, "name", name) && field_u64(line, "value", v))
        out.counters[name] = v;
    } else if (type == "gauge") {
      std::string name;
      double v = 0;
      if (field_str(line, "name", name) && field_num(line, "value", v)) out.gauges[name] = v;
    } else if (type == "histogram") {
      HistogramRow h;
      if (!field_str(line, "name", h.name)) continue;
      double num = 0;
      if (field_num(line, "sum", num)) h.sum = num;
      field_u64(line, "count", h.count);
      auto pos = after_key(line, "bounds");
      if (pos != std::string::npos) parse_num_array_at(line, pos, h.bounds);
      pos = after_key(line, "buckets");
      if (pos != std::string::npos) parse_num_array_at(line, pos, h.buckets);
      out.histograms[h.name] = std::move(h);
    } else if (type == "span") {
      Span s;
      field_u64(line, "id", s.id);
      field_u64(line, "parent", s.parent);
      field_u64(line, "trace", s.trace_id);
      field_str(line, "label", s.label);
      std::uint64_t start_u = 0;
      if (field_u64(line, "start_ns", start_u)) s.start_ns = static_cast<std::int64_t>(start_u);
      double dur = 0;
      if (field_num(line, "dur_ms", dur))
        s.end_ns = s.start_ns + static_cast<std::int64_t>(dur * 1e6);
      const auto apos = after_key(line, "attrs");
      if (apos != std::string::npos) parse_attrs_at(line, apos, s.attrs);
      out.spans.push_back(std::move(s));
    }
  }
  return out;
}

std::vector<Imported> import_jsonl_runs(const std::string& text) {
  std::vector<Imported> runs;
  std::string chunk;
  auto flush = [&] {
    if (!chunk.empty()) runs.push_back(import_jsonl(chunk));
    chunk.clear();
  };
  std::size_t start = 0;
  while (start < text.size()) {
    auto nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(start, nl - start);
    start = nl + 1;
    if (line.empty()) continue;
    std::string type;
    if (field_str(line, "type", type) && type == "meta") flush();
    chunk += line;
    chunk += '\n';
  }
  flush();
  return runs;
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

namespace {

bool prom_name_ok(const std::string& s) {
  if (s.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
  };
  if (!head(s[0])) return false;
  for (const char c : s)
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  return true;
}

bool prom_label_name_ok(const std::string& s) {
  if (s.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(s[0])) return false;
  for (const char c : s)
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  return true;
}

std::string prom_sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out)
    if (!((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
          c == '_' || c == ':'))
      c = '_';
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

std::string prom_escape_label(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '\\' || c == '"')
      out += '\\', out += c;
    else if (c == '\n')
      out += "\\n";
    else
      out += c;
  }
  return out;
}

/// Split a rendered registry name "base{k=v,k2=v2}" into a sanitized base and
/// a Prometheus label block `k="v",k2="v2"` (empty if no qualifiers).
void prom_split(const std::string& rendered, std::string& base, std::string& labels) {
  const auto brace = rendered.find('{');
  if (brace == std::string::npos || rendered.back() != '}') {
    base = prom_sanitize(rendered);
    labels.clear();
    return;
  }
  base = prom_sanitize(rendered.substr(0, brace));
  labels.clear();
  const std::string inner = rendered.substr(brace + 1, rendered.size() - brace - 2);
  std::size_t i = 0;
  while (i < inner.size()) {
    auto comma = inner.find(',', i);
    if (comma == std::string::npos) comma = inner.size();
    const std::string pair = inner.substr(i, comma - i);
    i = comma + 1;
    const auto eq = pair.find('=');
    if (eq == std::string::npos) continue;
    if (!labels.empty()) labels += ",";
    labels += prom_sanitize(pair.substr(0, eq)) + "=\"" +
              prom_escape_label(pair.substr(eq + 1)) + "\"";
  }
}

void prom_type_line(std::string& out, std::string& last_typed, const std::string& base,
                    const char* type) {
  if (base == last_typed) return;  // consecutive labeled variants share one TYPE
  out += "# TYPE " + base + " " + type + "\n";
  last_typed = base;
}

std::string prom_fmt_value(double v) { return fmt_double(v); }

}  // namespace

std::string to_prometheus(const Snapshot& snap) {
  std::string out;
  std::string last_typed;
  for (const auto& c : snap.counters) {
    std::string base, labels;
    prom_split(c.name, base, labels);
    prom_type_line(out, last_typed, base, "counter");
    out += base + (labels.empty() ? "" : "{" + labels + "}") + " " + fmt_u64(c.value) + "\n";
  }
  for (const auto& g : snap.gauges) {
    std::string base, labels;
    prom_split(g.name, base, labels);
    prom_type_line(out, last_typed, base, "gauge");
    out += base + (labels.empty() ? "" : "{" + labels + "}") + " " +
           prom_fmt_value(g.value) + "\n";
  }
  for (const auto& h : snap.histograms) {
    std::string base, labels;
    prom_split(h.name, base, labels);
    prom_type_line(out, last_typed, base, "histogram");
    const std::string extra = labels.empty() ? "" : labels + ",";
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      cum += h.buckets[i];
      const std::string le =
          i < h.bounds.size() ? prom_fmt_value(h.bounds[i]) : std::string("+Inf");
      out += base + "_bucket{" + extra + "le=\"" + le + "\"} " + fmt_u64(cum) + "\n";
    }
    if (h.buckets.empty())  // degenerate, still expose a +Inf bucket
      out += base + "_bucket{" + extra + "le=\"+Inf\"} " + fmt_u64(h.count) + "\n";
    out += base + "_sum" + (labels.empty() ? "" : "{" + labels + "}") + " " +
           prom_fmt_value(h.sum) + "\n";
    out += base + "_count" + (labels.empty() ? "" : "{" + labels + "}") + " " +
           fmt_u64(h.count) + "\n";
  }
  return out;
}

namespace {

struct PromSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  double value = 0;
  std::string labels_text;  // as written, brace-less
};

/// Parse one sample line; returns "" or an error description.
std::string parse_prom_sample(const std::string& line, PromSample& s) {
  std::size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  s.name = line.substr(0, i);
  if (!prom_name_ok(s.name)) return "bad metric name '" + s.name + "'";
  s.labels.clear();
  s.labels_text.clear();
  if (i < line.size() && line[i] == '{') {
    const auto close = line.find('}', i);
    if (close == std::string::npos) return "unterminated label block";
    s.labels_text = line.substr(i + 1, close - i - 1);
    std::size_t j = i + 1;
    while (j < close) {
      auto eq = line.find('=', j);
      if (eq == std::string::npos || eq > close) return "label without '='";
      const std::string k = line.substr(j, eq - j);
      if (!prom_label_name_ok(k)) return "bad label name '" + k + "'";
      if (eq + 1 >= close || line[eq + 1] != '"') return "unquoted label value";
      std::string v;
      std::size_t p = eq + 2;
      bool closed = false;
      while (p < close) {
        if (line[p] == '\\') {
          if (p + 1 >= close) return "dangling escape in label value";
          const char n = line[p + 1];
          if (n == 'n')
            v += '\n';
          else if (n == '\\' || n == '"')
            v += n;
          else
            return "bad escape in label value";
          p += 2;
        } else if (line[p] == '"') {
          closed = true;
          ++p;
          break;
        } else {
          v += line[p++];
        }
      }
      if (!closed) return "unterminated label value";
      s.labels.emplace_back(k, std::move(v));
      if (p < close && line[p] == ',') ++p;
      j = p;
    }
    i = close + 1;
  }
  if (i >= line.size() || line[i] != ' ') return "missing space before value";
  while (i < line.size() && line[i] == ' ') ++i;
  const char* vstart = line.c_str() + i;
  char* vend = nullptr;
  s.value = std::strtod(vstart, &vend);
  if (vend == vstart) return "missing sample value";
  // +Inf / -Inf / NaN are legal; anything after the number is not (we are
  // stricter than the spec: no timestamps).
  for (const char* p = vend; *p; ++p)
    if (*p != ' ') return "trailing characters after value";
  return "";
}

}  // namespace

std::string prometheus_lint(const std::string& text) {
  std::map<std::string, std::string> typed;          // base -> type
  std::map<std::string, bool> sampled;               // base -> saw a sample
  // Histogram bucket series keyed by base + non-le labels: (le, cumulative).
  std::map<std::string, std::vector<std::pair<double, double>>> buckets;
  std::map<std::string, double> hist_count;
  std::map<std::string, bool> hist_sum;

  auto hist_base = [&](const std::string& name, std::string& base,
                       std::string& suffix) {
    for (const char* suf : {"_bucket", "_sum", "_count"}) {
      const std::string s = suf;
      if (name.size() > s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0) {
        const std::string b = name.substr(0, name.size() - s.size());
        if (typed.count(b) && typed[b] == "histogram") {
          base = b;
          suffix = s;
          return true;
        }
      }
    }
    return false;
  };

  std::size_t lineno = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    auto nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(start, nl - start);
    start = nl + 1;
    ++lineno;
    auto err = [&](const std::string& what) {
      return "line " + std::to_string(lineno) + ": " + what;
    };
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Only HELP/TYPE comments count as structure; anything else is noise
      // the strict lint rejects.
      if (line.rfind("# HELP ", 0) == 0) continue;
      if (line.rfind("# TYPE ", 0) != 0) return err("comment is neither HELP nor TYPE");
      const std::string rest = line.substr(7);
      const auto sp = rest.find(' ');
      if (sp == std::string::npos) return err("TYPE missing metric type");
      const std::string name = rest.substr(0, sp);
      const std::string type = rest.substr(sp + 1);
      if (!prom_name_ok(name)) return err("TYPE has bad metric name '" + name + "'");
      if (type != "counter" && type != "gauge" && type != "histogram" &&
          type != "summary" && type != "untyped")
        return err("unknown metric type '" + type + "'");
      if (typed.count(name)) return err("duplicate TYPE for '" + name + "'");
      if (sampled.count(name)) return err("TYPE after samples of '" + name + "'");
      typed[name] = type;
      continue;
    }
    PromSample s;
    const std::string perr = parse_prom_sample(line, s);
    if (!perr.empty()) return err(perr);
    std::string base = s.name, suffix;
    if (!typed.count(s.name) && !hist_base(s.name, base, suffix))
      return err("sample '" + s.name + "' has no TYPE");
    sampled[base] = true;
    if (typed[base] == "histogram") {
      std::string others;
      std::string le;
      for (const auto& [k, v] : s.labels) {
        if (k == "le")
          le = v;
        else
          others += k + "=" + v + ";";
      }
      const std::string key = base + "|" + others;
      if (suffix == "_bucket") {
        if (le.empty()) return err("histogram bucket without le label");
        double lev;
        if (le == "+Inf")
          lev = std::numeric_limits<double>::infinity();
        else {
          char* e = nullptr;
          lev = std::strtod(le.c_str(), &e);
          if (e == le.c_str() || *e) return err("bad le value '" + le + "'");
        }
        buckets[key].emplace_back(lev, s.value);
      } else if (suffix == "_count") {
        hist_count[key] = s.value;
      } else if (suffix == "_sum") {
        hist_sum[key] = true;
      } else {
        return err("bare sample of histogram '" + base + "'");
      }
    }
  }
  for (const auto& [key, series] : buckets) {
    const std::string pretty = key.substr(0, key.find('|'));
    double prev = -1;
    bool has_inf = false;
    for (const auto& [le, v] : series) {
      if (v < prev)
        return "histogram '" + pretty + "': buckets not cumulative";
      prev = v;
      if (le == std::numeric_limits<double>::infinity()) has_inf = true;
    }
    if (!has_inf) return "histogram '" + pretty + "': missing +Inf bucket";
    const auto cit = hist_count.find(key);
    if (cit == hist_count.end()) return "histogram '" + pretty + "': missing _count";
    if (cit->second != series.back().second)
      return "histogram '" + pretty + "': _count != +Inf bucket";
    if (!hist_sum.count(key)) return "histogram '" + pretty + "': missing _sum";
  }
  return "";
}

std::map<std::string, double> parse_prometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::size_t start = 0;
  while (start < text.size()) {
    auto nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(start, nl - start);
    start = nl + 1;
    if (line.empty() || line[0] == '#') continue;
    PromSample s;
    if (!parse_prom_sample(line, s).empty()) continue;
    const std::string key =
        s.labels_text.empty() ? s.name : s.name + "{" + s.labels_text + "}";
    out[key] = s.value;
  }
  return out;
}

}  // namespace dlr::telemetry
