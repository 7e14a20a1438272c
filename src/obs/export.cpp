#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <string_view>

#include "common/json_reader.h"

namespace zdc::obs {
namespace {

// %.9g: exact for every bucket bound we emit, deterministic for everything
// else (same double, same text — the byte-identity contract only needs
// determinism, not round-tripping).
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

void append_labels_json(std::string* out, const Labels& labels) {
  *out += "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) *out += ", ";
    *out += "\"" + labels[i].first + "\": \"" + labels[i].second + "\"";
  }
  *out += "}";
}

}  // namespace

std::string to_json(const MetricsRegistry::Snapshot& snap) {
  std::string out = "{\n  \"schema\": \"zdc-metrics-v1\",\n  \"families\": [\n";
  for (std::size_t fi = 0; fi < snap.size(); ++fi) {
    const auto& fam = snap[fi];
    out += "    {\"name\": \"" + fam.name + "\", \"type\": \"";
    out += metric_kind_name(fam.kind);
    out += "\", \"points\": [\n";
    for (std::size_t pi = 0; pi < fam.points.size(); ++pi) {
      const auto& pt = fam.points[pi];
      out += "      {\"labels\": ";
      append_labels_json(&out, pt.labels);
      switch (fam.kind) {
        case MetricKind::kCounter:
          out += ", \"value\": " + fmt_u64(pt.counter);
          break;
        case MetricKind::kGauge:
          out += ", \"value\": " + fmt_double(pt.gauge);
          break;
        case MetricKind::kHistogram: {
          out += ", \"count\": " + fmt_u64(pt.count);
          out += ", \"sum\": " + fmt_double(pt.sum);
          out += ", \"bounds\": [";
          for (std::size_t i = 0; i < pt.bounds.size(); ++i) {
            if (i != 0) out += ", ";
            out += fmt_double(pt.bounds[i]);
          }
          out += "], \"buckets\": [";
          for (std::size_t i = 0; i < pt.buckets.size(); ++i) {
            if (i != 0) out += ", ";
            out += fmt_u64(pt.buckets[i]);
          }
          out += "]";
          break;
        }
      }
      out += pi + 1 == fam.points.size() ? "}\n" : "},\n";
    }
    out += fi + 1 == snap.size() ? "    ]}\n" : "    ]},\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string to_prometheus(const MetricsRegistry::Snapshot& snap) {
  std::string out;
  auto render_labels = [](const Labels& labels,
                          const std::string& extra) -> std::string {
    if (labels.empty() && extra.empty()) return "";
    std::string s = "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i != 0) s += ",";
      s += labels[i].first + "=\"" + labels[i].second + "\"";
    }
    if (!extra.empty()) {
      if (!labels.empty()) s += ",";
      s += extra;
    }
    s += "}";
    return s;
  };

  for (const auto& fam : snap) {
    out += "# TYPE " + fam.name + " ";
    out += metric_kind_name(fam.kind);
    out += "\n";
    for (const auto& pt : fam.points) {
      switch (fam.kind) {
        case MetricKind::kCounter:
          out += fam.name + render_labels(pt.labels, "") + " " +
                 fmt_u64(pt.counter) + "\n";
          break;
        case MetricKind::kGauge:
          out += fam.name + render_labels(pt.labels, "") + " " +
                 fmt_double(pt.gauge) + "\n";
          break;
        case MetricKind::kHistogram: {
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < pt.buckets.size(); ++i) {
            cumulative += pt.buckets[i];
            const std::string le =
                i < pt.bounds.size() ? fmt_double(pt.bounds[i]) : "+Inf";
            out += fam.name + "_bucket" +
                   render_labels(pt.labels, "le=\"" + le + "\"") + " " +
                   fmt_u64(cumulative) + "\n";
          }
          out += fam.name + "_sum" + render_labels(pt.labels, "") + " " +
                 fmt_double(pt.sum) + "\n";
          out += fam.name + "_count" + render_labels(pt.labels, "") + " " +
                 fmt_u64(pt.count) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Validation walks the document common::parse_json reads, so truncated
// files, non-JSON numbers and duplicate keys fail before any schema rule.

namespace {

using common::JsonValue;
using Type = JsonValue::Type;

/// "" when every key of `obj` is in `allowed`, else the diagnostic for the
/// first one that is not.
std::string unknown_key(const JsonValue& obj,
                        std::initializer_list<std::string_view> allowed,
                        const std::string& what) {
  for (const auto& member : obj.members) {
    if (std::find(allowed.begin(), allowed.end(), member.first) ==
        allowed.end()) {
      return "unknown " + what + "key '" + member.first + "'";
    }
  }
  return {};
}

std::string validate_point(const JsonValue& pt, const std::string& type) {
  if (!pt.is(Type::kObject)) return "point is not an object";
  std::string err = unknown_key(
      pt, {"labels", "value", "count", "sum", "bounds", "buckets"}, "point ");
  if (!err.empty()) return err;
  const JsonValue* labels = pt.find("labels");
  if (labels == nullptr) return "point missing labels";
  if (!labels->is(Type::kObject)) return "malformed labels object";
  for (const auto& [key, value] : labels->members) {
    if (key.empty() || !value.is(Type::kString)) {
      return "malformed labels object";
    }
  }
  if (type != "histogram") {
    const JsonValue* value = pt.find("value");
    if (value == nullptr) return "point missing value";
    if (!value->is(Type::kNumber)) return "value is not a number";
    if (type == "counter" && !value->is_count()) {
      return "counter value is not a non-negative integer";
    }
    return {};
  }
  const JsonValue* count = pt.find("count");
  const JsonValue* sum = pt.find("sum");
  if (count == nullptr || sum == nullptr) {
    return "histogram point missing count/sum";
  }
  if (!count->is_count()) return "count is not an integer";
  if (!sum->is(Type::kNumber)) return "sum is not a number";
  const JsonValue* bounds = pt.find("bounds");
  const JsonValue* buckets = pt.find("buckets");
  if (bounds == nullptr || !bounds->is(Type::kArray)) {
    return "malformed bounds array";
  }
  if (buckets == nullptr || !buckets->is(Type::kArray)) {
    return "malformed buckets array";
  }
  if (buckets->items.size() != bounds->items.size() + 1) {
    return "buckets arity != bounds + 1";
  }
  for (std::size_t i = 0; i < bounds->items.size(); ++i) {
    if (!bounds->items[i].is(Type::kNumber)) return "malformed bounds array";
    if (i > 0 && !(bounds->items[i - 1].number < bounds->items[i].number)) {
      return "bounds not ascending";
    }
  }
  double total = 0.0;
  for (const JsonValue& b : buckets->items) {
    if (!b.is_count()) return "bucket count is not an integer";
    total += b.number;
  }
  if (total != count->number) return "bucket counts do not sum to count";
  return {};
}

std::string validate_family(const JsonValue& fam) {
  if (!fam.is(Type::kObject)) return "family is not an object";
  std::string err = unknown_key(fam, {"name", "type", "points"}, "family ");
  if (!err.empty()) return err;
  const JsonValue* name = fam.find("name");
  const JsonValue* type = fam.find("type");
  const JsonValue* points = fam.find("points");
  if (name == nullptr) return "family missing name";
  if (!name->is(Type::kString) || name->text.empty()) {
    return "empty family name";
  }
  if (type == nullptr) return "family missing type";
  if (!type->is(Type::kString) ||
      (type->text != "counter" && type->text != "gauge" &&
       type->text != "histogram")) {
    return "unknown family type '" + type->text + "'";
  }
  if (points == nullptr) return "family missing points";
  if (!points->is(Type::kArray)) return "points is not an array";
  for (const JsonValue& pt : points->items) {
    err = validate_point(pt, type->text);
    if (!err.empty()) return err;
  }
  return {};
}

}  // namespace

std::string validate_metrics_json(const std::string& text) {
  JsonValue doc;
  std::string err = common::parse_json(text, &doc);
  if (!err.empty()) return err;
  if (!doc.is(Type::kObject)) return "not a JSON object";
  err = unknown_key(doc, {"schema", "families"}, "");
  if (!err.empty()) return err;
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr) return "missing schema";
  if (!schema->is(Type::kString) || schema->text != "zdc-metrics-v1") {
    return "unknown schema '" + schema->text + "'";
  }
  const JsonValue* families = doc.find("families");
  if (families == nullptr) return "missing families";
  if (!families->is(Type::kArray)) return "families is not an array";
  if (families->items.empty()) return "families is empty";
  for (const JsonValue& fam : families->items) {
    err = validate_family(fam);
    if (!err.empty()) return err;
  }
  return {};
}

}  // namespace zdc::obs
