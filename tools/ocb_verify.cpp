// Standalone static-plan-verifier sweep (DESIGN.md §15).
//
// Walks registry models through every precision/storage variant (each
// plan fused and arena-backed, INT8 included), runs the full
// ocb::verify check catalog over every prepared plan (including the
// applied-layout checks against the live engine), and emits a
// machine-readable JSON report. With --mutations it additionally audits
// the verifier itself: every PlanDefect is planted into snapshot copies
// and must be caught by its intended check — a defect nobody catches
// means a check has gone vacuous.
//
// Exit status: 0 when every plan verified clean and (with --mutations)
// every plantable defect was caught; 1 otherwise. CI runs this in a
// Debug leg over the default model set and fails on any finding.
#include <cctype>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/rng.hpp"
#include "models/registry.hpp"
#include "nn/engine.hpp"
#include "verify/plan_mutator.hpp"
#include "verify/verify.hpp"

using namespace ocb;

namespace {

/// One precision/storage variant of the sweep.
struct Variant {
  const char* name;
  nn::Precision precision;
  bool sparse;
};

constexpr Variant kVariants[] = {
    {"fp32", nn::Precision::kFp32, false},
    {"fp16", nn::Precision::kFp16, false},
    {"sparse", nn::Precision::kFp32, true},
    {"sparse-half", nn::Precision::kFp16, true},
    {"int8", nn::Precision::kInt8, false},
};

struct Row {
  std::string model;
  std::string variant;
  int findings = 0;
  int residual_fused = 0;
  int concat_elided = 0;
  std::string detail;  ///< report text when findings > 0
};

struct Audit {
  std::string defect;
  std::string expected;
  int planted = 0;
  int caught = 0;
};

std::string canon(const std::string& s) {
  std::string out;
  for (char c : s)
    if (std::isalnum(static_cast<unsigned char>(c)))
      out.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
  return out;
}

nn::PlanRequest make_request(const Variant& v) {
  nn::PlanRequest req;
  req.precision = v.precision;
  if (v.sparse) {
    req.sparsity.scheme = nn::SparsityScheme::kNm;
    req.sparsity.nm_n = 2;
    req.sparsity.nm_m = 4;
  }
  return req;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string to_json(const std::vector<Row>& rows,
                    const std::vector<Audit>& audits) {
  std::ostringstream out;
  out << "{\n  \"tool\": \"ocb_verify\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"model\": \"" << r.model << "\", \"variant\": \""
        << r.variant << "\", \"findings\": " << r.findings
        << ", \"residual_fused\": " << r.residual_fused
        << ", \"concat_elided\": " << r.concat_elided << ", \"detail\": \""
        << json_escape(r.detail) << "\"}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"mutation_audit\": [\n";
  for (std::size_t i = 0; i < audits.size(); ++i) {
    const Audit& a = audits[i];
    out << "    {\"defect\": \"" << a.defect << "\", \"expected_check\": \""
        << a.expected << "\", \"planted\": " << a.planted
        << ", \"caught\": " << a.caught << "}"
        << (i + 1 < audits.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

/// Verify one prepared engine and append the result row.
void sweep_leg(const nn::Engine& engine, const std::string& model,
               const char* variant, std::vector<Row>& rows) {
  const verify::Report report = verify::verify(engine);
  Row row;
  row.model = model;
  row.variant = variant;
  row.findings = static_cast<int>(report.findings.size());
  row.residual_fused = engine.plan().residual_fused;
  row.concat_elided = engine.plan().concat_elided;
  if (!report.clean()) row.detail = report.to_text();
  rows.push_back(row);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("ocb_verify",
          "static plan verifier sweep: registry models × "
          "precision/storage variants");
  cli.add_double("scale", 0.25,
                 "registry model input scale (1.0 = deployment "
                 "resolution)");
  cli.add_string("models", "yolov8n,yolov8m,trtpose,monodepth2",
                 "comma-separated registry model names, or 'all'");
  cli.add_string("out", "verify_report.json",
                 "JSON report path (empty disables)");
  cli.add_flag("mutations",
               "also audit the verifier: plant every PlanDefect into "
               "snapshot copies and require its intended check to fire");
  cli.add_int("seed", 7, "mutation site-selection seed");
  if (!cli.parse(argc, argv)) return 0;
  const double scale = cli.real("scale");

  // Resolve the model list against the registry by normalized name.
  std::vector<models::ModelId> ids;
  {
    const std::string spec = canon(cli.string("models"));
    for (const models::ModelInfo& info : models::model_table()) {
      if (spec == "all" ||
          spec.find(canon(info.name)) != std::string::npos)
        ids.push_back(info.id);
    }
    if (ids.empty()) {
      std::cerr << "ocb_verify: no registry model matches --models="
                << cli.string("models") << "\n";
      return 1;
    }
  }

  std::vector<Row> rows;
  std::vector<Audit> audits;
  // Snapshots kept for the mutation audit: every model's fp32 plan
  // (most defect classes; each model contributes different node kinds,
  // e.g. trt_pose's deconvs) and the first model's int8 plan (the
  // dequant class).
  std::vector<verify::PlanSnapshot> audit_snaps;

  for (models::ModelId id : ids) {
    const models::ModelInfo& info = models::model_info(id);
    const nn::Graph graph = models::build_model(id, scale);
    nn::Engine engine(graph, 11);

    // Calibrate once on the constructor's fp32 baseline plan, so the
    // int8 leg can prepare without arguments.
    {
      const nn::FeatShape in = graph.input_shape();
      Tensor frame({1, in.c, in.h, in.w});
      Rng rng(hash_combine(3, static_cast<std::uint64_t>(id)));
      frame.init_uniform(rng, 0.0f, 1.0f);
      engine.calibrate({frame});
    }

    for (const Variant& v : kVariants) {
      engine.prepare(make_request(v));
      sweep_leg(engine, info.name, v.name, rows);
      if (cli.flag("mutations") && std::string(v.name) == "fp32")
        audit_snaps.push_back(verify::snapshot(engine));
    }
    if (cli.flag("mutations") && id == ids.front()) {
      // The engine currently holds the int8 plan (last variant).
      audit_snaps.push_back(verify::snapshot(engine));
    }
  }

  int sweep_findings = 0;
  for (const Row& r : rows) sweep_findings += r.findings;

  bool audit_failed = false;
  if (cli.flag("mutations")) {
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cli.integer("seed"));
    const verify::PlanDefect* defects = verify::all_defects();
    for (int d = 0; d < verify::kDefectCount; ++d) {
      Audit audit;
      audit.defect = verify::defect_name(defects[d]);
      audit.expected = verify::check_name(verify::expected_check(defects[d]));
      for (std::size_t s = 0; s < audit_snaps.size(); ++s) {
        verify::PlanSnapshot mutated = audit_snaps[s];
        if (!verify::plant_defect(mutated, defects[d],
                                  hash_combine(seed, s)))
          continue;
        ++audit.planted;
        const verify::Report report = verify::verify(mutated);
        if (report.count(verify::expected_check(defects[d])) > 0)
          ++audit.caught;
      }
      if (audit.planted == 0 || audit.caught < audit.planted)
        audit_failed = true;
      audits.push_back(audit);
    }
  }

  // Human summary.
  std::cout << "ocb_verify: " << rows.size() << " plans verified, "
            << sweep_findings << " findings\n";
  for (const Row& r : rows) {
    if (r.findings == 0) continue;
    std::cout << "  " << r.model << " / " << r.variant << ": " << r.findings
              << " findings\n"
              << r.detail;
  }
  for (const Audit& a : audits) {
    std::cout << "  mutation " << a.defect << " -> " << a.expected << ": "
              << a.caught << "/" << a.planted << " caught"
              << (a.planted == 0 ? " (NEVER PLANTED)" : "") << "\n";
  }

  if (!cli.string("out").empty()) {
    std::ofstream file(cli.string("out"));
    file << to_json(rows, audits);
    std::cout << "wrote " << cli.string("out") << "\n";
  }
  return (sweep_findings == 0 && !audit_failed) ? 0 : 1;
}
