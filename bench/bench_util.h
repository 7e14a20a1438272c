// Shared plumbing for the paper-reproduction benches: throughput sweeps,
// repeated-seed averaging, table printing, and the one library that writes,
// validates and drives the BENCH_*.json artifacts.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/assert.h"
#include "common/json_reader.h"
#include "common/rng.h"
#include "sim/abcast_world.h"

namespace zdc::bench {

/// Wall-clock seconds, for the benches' throughput and timing columns.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The throughput grid of Figures 2 and 3 (20–500 msg/s).
inline std::vector<double> figure_throughputs() {
  return {20, 50, 80, 100, 150, 200, 250, 300, 350, 400, 450, 500};
}

struct SweepPoint {
  double throughput = 0;
  double mean_latency_ms = 0;
  double p95_latency_ms = 0;
  double messages_per_abcast = 0;
  bool safe = true;
  bool complete = true;  ///< everything delivered everywhere
};

/// Runs `protocol` at one throughput, averaging `repeats` seeds. The Paxos
/// baseline keeps clients off the leader (the paper's deployment: the n=3
/// group orders a workload originating elsewhere), so every message pays the
/// client→leader hop of Table 1.
inline SweepPoint run_point(const std::string& protocol, GroupParams group,
                            double throughput, std::uint32_t message_count,
                            std::uint32_t repeats, std::uint64_t seed_base) {
  SweepPoint point;
  point.throughput = throughput;
  common::Sampler latency;
  double msgs_acc = 0;
  for (std::uint32_t rep = 0; rep < repeats; ++rep) {
    sim::AbcastRunConfig cfg;
    cfg.with_group(group).with_net(sim::calibrated_lan_2006());
    // Per-cell seed via splitmix64 over (base, protocol, throughput, rep):
    // the former additive `seed_base + rep * K` reused the same stream for
    // every protocol and sweep point and could collide across bases,
    // silently correlating "independent" repeats (collision regression in
    // stats_test.cpp).
    cfg.with_seed(common::mix_seed(seed_base, protocol, throughput, rep));
    cfg.throughput_per_s = throughput;
    cfg.message_count = message_count;
    if (protocol == "paxos") {
      for (ProcessId p = 1; p < group.n; ++p) cfg.workload_senders.push_back(p);
    }
    auto r = sim::run_abcast(cfg, sim::abcast_factory_by_name(protocol));
    point.safe = point.safe && r.safe();
    point.complete = point.complete && r.agreement_ok && r.undelivered == 0;
    // Equal-weight merge of per-run means (runs use the same message count).
    latency.add(r.latency_ms.mean());
    msgs_acc += r.messages_per_abcast();
    if (rep == 0) point.p95_latency_ms = r.latency_ms.percentile(95);
  }
  point.mean_latency_ms = latency.mean();
  point.messages_per_abcast = msgs_acc / repeats;
  return point;
}

inline void print_header(const std::vector<std::string>& protocols) {
  std::printf("%10s", "msg/s");
  for (const auto& p : protocols) std::printf("  %16s", p.c_str());
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Bench artifacts (BENCH_*.json). A bench declares an ArtifactSchema — a
// tag, then tables of typed fields — and produces rows; bench_main owns the
// CLI, the writer and the validator. Every artifact has the same shape:
//
//   {
//     "schema": "<tag>",
//     "quick": false,
//     "seed_base": 1,
//     "<table>": [
//       {"<field>": <value>, ...},   <- one row per line, fields in order
//       ...
//     ],
//     ...                            <- one array per table, in order
//   }
//
// Values print with a fixed per-field format, so a fixed-seed run writes the
// same bytes every time outside its wall-clock fields. The validator reads
// through common::parse_json (strict JSON numbers, no duplicate keys) and
// rejects unknown keys, missing keys and type confusion.

enum class FieldKind { kString, kCount, kReal };

struct Field {
  std::string name;
  FieldKind kind = FieldKind::kReal;
  int digits = 0;  ///< decimals printed for kReal
};

/// A non-empty string.
inline Field text_field(std::string name) {
  return {std::move(name), FieldKind::kString};
}
/// A non-negative integer.
inline Field count_field(std::string name) {
  return {std::move(name), FieldKind::kCount};
}
/// A number printed with `digits` decimals.
inline Field real_field(std::string name, int digits) {
  return {std::move(name), FieldKind::kReal, digits};
}

/// One cell per field, in field order; the alternative's index is the
/// field's FieldKind (string, count, real).
using Cell = std::variant<std::string, std::uint64_t, double>;
using ArtifactRow = std::vector<Cell>;
using ArtifactRows = std::vector<ArtifactRow>;

struct ArtifactTable {
  std::string name;
  std::vector<Field> fields;
  /// Optional semantic check, run once every row matched `fields`: returns
  /// "" or a one-line diagnostic.
  std::function<std::string(const std::vector<common::JsonValue>& rows)>
      check{};
};

struct ArtifactSchema {
  std::string tag;          ///< "zdc-bench-<name>-v<N>"
  std::string default_out;  ///< the file bench_main writes without --out
  std::vector<ArtifactTable> tables;
};

inline std::string format_cell(const Cell& cell, int digits) {
  if (const auto* s = std::get_if<std::string>(&cell)) return '"' + *s + '"';
  if (const auto* u = std::get_if<std::uint64_t>(&cell)) {
    return std::to_string(*u);
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, std::get<double>(cell));
  return buf;
}

/// Renders one artifact; `tables` holds one row list per schema table.
inline std::string emit_artifact(const ArtifactSchema& schema,
                                 const std::vector<ArtifactRows>& tables,
                                 bool quick, std::uint64_t seed_base) {
  ZDC_ASSERT(tables.size() == schema.tables.size());
  std::string out = "{\n  \"schema\": \"" + schema.tag + "\",\n";
  out += std::string("  \"quick\": ") + (quick ? "true" : "false") + ",\n";
  out += "  \"seed_base\": " + std::to_string(seed_base) + ",\n";
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const std::vector<Field>& fields = schema.tables[t].fields;
    out += "  \"" + schema.tables[t].name + "\": [\n";
    for (std::size_t r = 0; r < tables[t].size(); ++r) {
      const ArtifactRow& row = tables[t][r];
      ZDC_ASSERT(row.size() == fields.size());
      out += "    {";
      for (std::size_t f = 0; f < fields.size(); ++f) {
        ZDC_ASSERT(row[f].index() == static_cast<std::size_t>(fields[f].kind));
        if (f != 0) out += ", ";
        out += '"' + fields[f].name + "\": " +
               format_cell(row[f], fields[f].digits);
      }
      out += r + 1 == tables[t].size() ? "}\n" : "},\n";
    }
    out += t + 1 == tables.size() ? "  ]\n" : "  ],\n";
  }
  return out + "}\n";
}

/// "" when `row` has exactly the table's fields with the right types.
inline std::string validate_row(const ArtifactTable& table,
                                const common::JsonValue& row) {
  using Type = common::JsonValue::Type;
  if (!row.is(Type::kObject)) return "not an object";
  for (const auto& member : row.members) {
    if (std::none_of(table.fields.begin(), table.fields.end(),
                     [&](const Field& f) { return f.name == member.first; })) {
      return "unknown key '" + member.first + "'";
    }
  }
  for (const Field& field : table.fields) {
    const common::JsonValue* v = row.find(field.name);
    if (v == nullptr) return "missing key " + field.name;
    if (field.kind == FieldKind::kString) {
      if (!v->is(Type::kString)) return field.name + " is not a string";
      if (v->text.empty()) return "empty " + field.name;
    } else if (!v->is(Type::kNumber)) {
      return field.name + " is not a number";
    } else if (field.kind == FieldKind::kCount && !v->is_count()) {
      return field.name + " is not a non-negative integer";
    }
  }
  return {};
}

/// Returns "" when `text` conforms to `schema`, else a one-line diagnostic.
inline std::string validate_artifact(const ArtifactSchema& schema,
                                     std::string_view text) {
  using Type = common::JsonValue::Type;
  common::JsonValue doc;
  std::string err = common::parse_json(text, &doc);
  if (!err.empty()) return err;
  if (!doc.is(Type::kObject)) return "not a JSON object";
  for (const auto& member : doc.members) {
    const std::string& key = member.first;
    if (key != "schema" && key != "quick" && key != "seed_base" &&
        std::none_of(schema.tables.begin(), schema.tables.end(),
                     [&](const ArtifactTable& t) { return t.name == key; })) {
      return "unknown key '" + key + "'";
    }
  }
  const common::JsonValue* tag = doc.find("schema");
  if (tag == nullptr) return "missing schema";
  if (tag->text != schema.tag) return "unknown schema '" + tag->text + "'";
  const common::JsonValue* quick = doc.find("quick");
  if (quick == nullptr || !quick->is(Type::kBool)) {
    return "quick is missing or not a bool";
  }
  const common::JsonValue* seed_base = doc.find("seed_base");
  if (seed_base == nullptr || !seed_base->is_count()) {
    return "seed_base is missing or not a non-negative integer";
  }
  for (const ArtifactTable& table : schema.tables) {
    const common::JsonValue* rows = doc.find(table.name);
    if (rows == nullptr) return "missing " + table.name;
    if (!rows->is(Type::kArray)) return table.name + " is not an array";
    if (rows->items.empty()) return table.name + " is empty";
    for (std::size_t i = 0; i < rows->items.size(); ++i) {
      err = validate_row(table, rows->items[i]);
      if (!err.empty()) {
        return table.name + "[" + std::to_string(i) + "]: " + err;
      }
    }
    if (table.check) {
      err = table.check(rows->items);
      if (!err.empty()) return err;
    }
  }
  return {};
}

inline int validate_artifact_file(const ArtifactSchema& schema,
                                  const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "validate: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const std::string err = validate_artifact(schema, text.str());
  if (!err.empty()) {
    std::fprintf(stderr, "validate: %s: %s\n", path.c_str(), err.c_str());
    return 1;
  }
  std::printf("validate: %s conforms to %s\n", path.c_str(),
              schema.tag.c_str());
  return 0;
}

/// The CLI every artifact bench shares:
///   <bench> [--quick] [--out FILE] [--seed N]   # run + write the artifact
///   <bench> --validate FILE                     # schema-check an artifact
/// `produce(quick, seed_base)` runs the measurements and returns one row
/// list per schema table. The artifact is validated before it is written.
inline int bench_main(
    int argc, char** argv, const ArtifactSchema& schema,
    const std::function<std::vector<ArtifactRows>(bool, std::uint64_t)>&
        produce) {
  bool quick = false;
  std::string out_path = schema.default_out;
  std::uint64_t seed_base = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed_base = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--validate" && i + 1 < argc) {
      return validate_artifact_file(schema, argv[++i]);
    } else {
      std::string prog = argv[0];
      prog = prog.substr(prog.find_last_of('/') + 1);
      std::fprintf(stderr,
                   "usage: %s [--quick] [--out FILE] [--seed N] | "
                   "--validate FILE\n",
                   prog.c_str());
      return 2;
    }
  }

  const std::vector<ArtifactRows> tables = produce(quick, seed_base);
  const std::string json = emit_artifact(schema, tables, quick, seed_base);
  const std::string err = validate_artifact(schema, json);
  if (!err.empty()) {
    std::fprintf(stderr, "emitted JSON fails own validation: %s\n",
                 err.c_str());
    return 1;
  }
  std::ofstream out(out_path, std::ios::binary);
  out << json;
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu rows)\n", out_path.c_str(),
              tables.front().size());
  return 0;
}

}  // namespace zdc::bench
