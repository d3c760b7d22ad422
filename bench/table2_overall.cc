// Reproduces Table II: R@20 / N@20 for all 15 methods on the seven
// dataset presets. Prints measured values (in %, as in the paper) with
// the paper's reported numbers alongside for shape comparison. Datasets
// can be restricted via IMCAT_BENCH_DATASETS (comma-separated names) and
// models via IMCAT_BENCH_MODELS. With IMCAT_BENCH_SEEDS >= 2, each
// dataset also gets a table of every IMCAT variant against its backbone
// (B-IMCAT/BPRMF, N-IMCAT/NeuMF, L-IMCAT/LightGCN, when both ran): the
// mean difference and the two-sided paired t-test p-value over the
// per-seed test results (seeds are shared, so runs pair by seed).

#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

#include "bench/runner.h"
#include "eval/significance.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using imcat::bench::BenchEnv;
using imcat::bench::Workload;

// Paper Table II: {model -> {dataset -> {R@20, N@20}}} (percent).
const std::map<std::string, std::map<std::string, std::pair<double, double>>>&
PaperTable2() {
  static const auto& table = *new std::map<
      std::string, std::map<std::string, std::pair<double, double>>>{
      {"BPRMF",
       {{"HetRec-MV", {13.11, 25.74}}, {"HetRec-FM", {16.23, 12.92}},
        {"HetRec-Del", {17.33, 11.83}}, {"CiteULike", {16.09, 8.97}},
        {"Last.fm-Tag", {33.28, 23.45}}, {"AMZBook-Tag", {14.14, 8.12}},
        {"Yelp-Tag", {8.36, 5.41}}}},
      {"NeuMF",
       {{"HetRec-MV", {14.15, 27.07}}, {"HetRec-FM", {16.37, 13.14}},
        {"HetRec-Del", {18.62, 13.30}}, {"CiteULike", {17.21, 10.24}},
        {"Last.fm-Tag", {34.25, 25.01}}, {"AMZBook-Tag", {15.38, 8.84}},
        {"Yelp-Tag", {8.85, 5.83}}}},
      {"LightGCN",
       {{"HetRec-MV", {15.09, 29.64}}, {"HetRec-FM", {17.01, 13.62}},
        {"HetRec-Del", {19.85, 15.27}}, {"CiteULike", {19.14, 11.91}},
        {"Last.fm-Tag", {38.73, 29.11}}, {"AMZBook-Tag", {15.89, 9.27}},
        {"Yelp-Tag", {9.37, 6.19}}}},
      {"CFA",
       {{"HetRec-MV", {14.21, 27.34}}, {"HetRec-FM", {16.82, 13.44}},
        {"HetRec-Del", {18.68, 13.42}}, {"CiteULike", {17.31, 10.64}},
        {"Last.fm-Tag", {34.23, 24.93}}, {"AMZBook-Tag", {15.14, 8.65}},
        {"Yelp-Tag", {8.82, 5.81}}}},
      {"DSPR",
       {{"HetRec-MV", {14.62, 28.32}}, {"HetRec-FM", {16.94, 13.51}},
        {"HetRec-Del", {18.32, 13.13}}, {"CiteULike", {17.42, 10.77}},
        {"Last.fm-Tag", {35.30, 26.22}}, {"AMZBook-Tag", {15.39, 8.87}},
        {"Yelp-Tag", {8.84, 5.86}}}},
      {"TGCN",
       {{"HetRec-MV", {15.29, 29.84}}, {"HetRec-FM", {19.22, 15.31}},
        {"HetRec-Del", {20.16, 15.74}}, {"CiteULike", {21.06, 12.71}},
        {"Last.fm-Tag", {43.13, 31.62}}, {"AMZBook-Tag", {17.09, 9.96}},
        {"Yelp-Tag", {9.76, 6.47}}}},
      {"CKE",
       {{"HetRec-MV", {14.28, 27.61}}, {"HetRec-FM", {16.78, 13.20}},
        {"HetRec-Del", {18.76, 13.60}}, {"CiteULike", {19.18, 11.94}},
        {"Last.fm-Tag", {38.21, 28.03}}, {"AMZBook-Tag", {16.54, 9.42}},
        {"Yelp-Tag", {9.09, 6.02}}}},
      {"RippleNet",
       {{"HetRec-MV", {14.78, 28.69}}, {"HetRec-FM", {16.92, 13.47}},
        {"HetRec-Del", {18.93, 13.67}}, {"CiteULike", {19.81, 12.37}},
        {"Last.fm-Tag", {39.55, 29.12}}, {"AMZBook-Tag", {16.67, 9.54}},
        {"Yelp-Tag", {9.32, 6.18}}}},
      {"KGAT",
       {{"HetRec-MV", {14.99, 28.93}}, {"HetRec-FM", {17.34, 14.18}},
        {"HetRec-Del", {19.31, 14.72}}, {"CiteULike", {20.09, 12.48}},
        {"Last.fm-Tag", {40.23, 29.63}}, {"AMZBook-Tag", {16.79, 9.61}},
        {"Yelp-Tag", {9.39, 6.23}}}},
      {"KGIN",
       {{"HetRec-MV", {15.30, 29.98}}, {"HetRec-FM", {20.01, 15.87}},
        {"HetRec-Del", {20.13, 15.67}}, {"CiteULike", {22.03, 13.08}},
        {"Last.fm-Tag", {44.23, 32.72}}, {"AMZBook-Tag", {16.81, 9.63}},
        {"Yelp-Tag", {9.97, 6.67}}}},
      {"SGL",
       {{"HetRec-MV", {15.03, 29.11}}, {"HetRec-FM", {19.44, 15.57}},
        {"HetRec-Del", {19.58, 14.96}}, {"CiteULike", {20.74, 12.59}},
        {"Last.fm-Tag", {43.18, 31.75}}, {"AMZBook-Tag", {16.92, 9.88}},
        {"Yelp-Tag", {9.85, 6.53}}}},
      {"KGCL",
       {{"HetRec-MV", {15.42, 30.24}}, {"HetRec-FM", {20.55, 16.08}},
        {"HetRec-Del", {20.23, 15.82}}, {"CiteULike", {21.41, 12.90}},
        {"Last.fm-Tag", {43.62, 31.95}}, {"AMZBook-Tag", {17.12, 10.01}},
        {"Yelp-Tag", {10.00, 6.69}}}},
      {"B-IMCAT",
       {{"HetRec-MV", {15.13, 29.31}}, {"HetRec-FM", {17.86, 14.50}},
        {"HetRec-Del", {19.94, 15.42}}, {"CiteULike", {19.24, 12.13}},
        {"Last.fm-Tag", {40.27, 29.74}}, {"AMZBook-Tag", {15.99, 9.39}},
        {"Yelp-Tag", {9.39, 6.25}}}},
      {"N-IMCAT",
       {{"HetRec-MV", {15.32, 30.16}}, {"HetRec-FM", {20.76, 16.26}},
        {"HetRec-Del", {20.15, 15.72}}, {"CiteULike", {22.15, 13.14}},
        {"Last.fm-Tag", {44.01, 32.31}}, {"AMZBook-Tag", {17.21, 10.04}},
        {"Yelp-Tag", {10.04, 6.72}}}},
      {"L-IMCAT",
       {{"HetRec-MV", {16.22, 33.52}}, {"HetRec-FM", {21.25, 17.09}},
        {"HetRec-Del", {21.58, 16.82}}, {"CiteULike", {22.87, 13.59}},
        {"Last.fm-Tag", {46.73, 33.61}}, {"AMZBook-Tag", {17.72, 10.51}},
        {"Yelp-Tag", {10.41, 6.94}}}},
  };
  return table;
}

std::vector<std::string> ListFromEnv(const char* name,
                                     const std::vector<std::string>& dflt) {
  const char* value = std::getenv(name);
  if (value == nullptr) return dflt;
  std::vector<std::string> out;
  for (const std::string& part : imcat::Split(value, ',')) {
    if (!part.empty()) out.push_back(part);
  }
  return out.empty() ? dflt : out;
}

// IMCAT variant -> the backbone it extends.
const std::vector<std::pair<std::string, std::string>> kImcatBackbones = {
    {"B-IMCAT", "BPRMF"}, {"N-IMCAT", "NeuMF"}, {"L-IMCAT", "LightGCN"}};

// One test metric (in %) per seed.
std::vector<double> PerSeedPercent(
    const std::vector<imcat::bench::RunResult>& runs, bool ndcg) {
  std::vector<double> values;
  for (const imcat::bench::RunResult& r : runs) {
    values.push_back(100.0 * (ndcg ? r.test.ndcg : r.test.recall));
  }
  return values;
}

// "+0.42 (p=0.031)": mean of imcat - backbone over the seeds, and the
// paired t-test p-value.
std::string PairedCell(const std::vector<double>& imcat_values,
                       const std::vector<double>& backbone_values) {
  double diff = 0.0;
  for (size_t s = 0; s < imcat_values.size(); ++s) {
    diff += imcat_values[s] - backbone_values[s];
  }
  diff /= static_cast<double>(imcat_values.size());
  const imcat::TTestResult test =
      imcat::PairedTTest(imcat_values, backbone_values);
  return (diff >= 0.0 ? "+" : "") + imcat::FormatDouble(diff, 2) +
         " (p=" + imcat::FormatDouble(test.p_value, 3) + ")";
}

}  // namespace

int main() {
  const BenchEnv env = BenchEnv::FromEnvironment();
  imcat::bench::PrintBanner(
      "Table II — overall performance comparison (R@20 / N@20, %)", env);

  const std::vector<std::string> datasets =
      ListFromEnv("IMCAT_BENCH_DATASETS", imcat::PresetNames());
  const std::vector<std::string> models =
      ListFromEnv("IMCAT_BENCH_MODELS", imcat::AllModelNames());

  for (const std::string& dataset : datasets) {
    Workload workload = imcat::bench::MakeWorkload(dataset, env, /*seed=*/1);
    const imcat::DatasetStats stats = imcat::ComputeStats(workload.dataset);
    std::printf("\n--- %s: %lld users, %lld items, %lld tags, %lld UI ---\n",
                dataset.c_str(), static_cast<long long>(stats.num_users),
                static_cast<long long>(stats.num_items),
                static_cast<long long>(stats.num_tags),
                static_cast<long long>(stats.num_interactions));
    imcat::TablePrinter table(
        {"Model", "R@20", "N@20", "paper R@20", "paper N@20", "sec"});
    std::map<std::string, std::vector<imcat::bench::RunResult>> runs_by_model;
    for (const std::string& model : models) {
      const std::vector<imcat::bench::RunResult>& runs =
          runs_by_model[model] = imcat::bench::RunSeeds(model, &workload, env);
      double seconds = 0.0;
      for (const auto& r : runs) seconds += r.train_seconds;
      const auto& paper = PaperTable2().at(model).at(dataset);
      table.AddRow({model,
                    imcat::FormatDouble(
                        imcat::bench::MeanTestRecallPercent(runs), 2),
                    imcat::FormatDouble(
                        imcat::bench::MeanTestNdcgPercent(runs), 2),
                    imcat::FormatDouble(paper.first, 2),
                    imcat::FormatDouble(paper.second, 2),
                    imcat::FormatDouble(seconds / runs.size(), 1)});
      std::fflush(stdout);
    }
    table.Print();
    if (env.num_seeds < 2) continue;
    imcat::TablePrinter paired({"IMCAT vs backbone", "dR@20 (p)", "dN@20 (p)"});
    for (const auto& [imcat_model, backbone] : kImcatBackbones) {
      if (runs_by_model.count(imcat_model) == 0 ||
          runs_by_model.count(backbone) == 0) {
        continue;
      }
      const auto& ours = runs_by_model.at(imcat_model);
      const auto& base = runs_by_model.at(backbone);
      paired.AddRow({imcat_model + " vs " + backbone,
                     PairedCell(PerSeedPercent(ours, false),
                                PerSeedPercent(base, false)),
                     PairedCell(PerSeedPercent(ours, true),
                                PerSeedPercent(base, true))});
    }
    paired.Print();
  }
  return 0;
}
