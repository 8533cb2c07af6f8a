// Figure 6: peak throughput and micro metrics (bpt, bet, tet) vs block
// size for the complex-join contract (join two tables, aggregate, insert
// the result into a third), for both flows.
// Paper shape: throughput far below the simple contract (tet grows ~160x);
// execute-order-in-parallel reaches about twice order-then-execute's peak
// because execution overlaps ordering.
#include "bench_common.h"

using namespace brdb;
using namespace brdb::bench;

namespace {

void RunFlow(TransactionFlow flow, const char* label, int* key) {
  std::printf("-- %s --\n", label);
  std::printf("%-10s %-14s %-8s %-8s %-8s\n", "blocksize", "peak_tps", "bpt",
              "bet", "tet");
  static const char* kRegions[] = {"emea", "amer", "apac", "latam"};
  for (size_t bs : {10, 50, 100}) {
    auto net = BlockchainNetwork::Create(BenchOptions(flow, bs));
    if (!RegisterWorkloadContracts(net.get()).ok() || !net->Start().ok()) {
      return;
    }
    Session* client = net->CreateSession("org1", "loadgen");
    Session* seeder = net->CreateSession("org1", "seeder");
    if (!DeployWorkloadSchema(net.get(), seeder).ok()) {
      std::fprintf(stderr, "schema deploy failed\n");
      return;
    }
    double peak = 0;
    MetricsSnapshot at_peak;
    for (double rate : {100.0, 200.0, 400.0}) {
      int total = static_cast<int>(rate * 2);
      int base = *key;
      *key += total;
      LoadResult r = RunLoad(
          net.get(), client, "complex_join", rate, total, [&](int i) {
            return std::vector<Value>{
                Value::Int(base + i),
                Value::Text(kRegions[(base + i) % 4])};
          });
      if (r.committed_tps > peak) {
        peak = r.committed_tps;
        at_peak = r.node0;
      }
    }
    std::printf("%-10zu %-14.1f %-8.2f %-8.2f %-8.3f\n", bs, peak,
                at_peak.bpt_ms, at_peak.bet_ms, at_peak.tet_ms);
    std::fflush(stdout);
    net->Stop();
  }
}

/// The contract's analytical core, run directly as a client query: join +
/// aggregate over the committed history, per region.
AnalyticsBench JoinBench() {
  AnalyticsBench spec;
  spec.name = "fig6";
  spec.measured_sql =
      "SELECT COALESCE(SUM(o.amount), 0) FROM orders o "
      "JOIN customers c ON o.cust = c.cust_id WHERE c.region = $1";
  for (const char* r : {"emea", "amer", "apac", "latam"}) {
    spec.measured_params.push_back({Value::Text(r)});
  }
  spec.parity_queries.push_back({spec.measured_sql, spec.measured_params});
  // Full scan and typed range scan over the fact table (zone-map path).
  spec.parity_queries.push_back(
      {"SELECT * FROM orders", {std::vector<Value>{}}});
  spec.parity_queries.push_back(
      {"SELECT o.order_id, o.amount FROM orders o "
       "WHERE o.amount >= $1 AND o.amount <= $2",
       {{Value::Int(20), Value::Int(40)}, {Value::Int(80), Value::Int(99)}}});
  // Join emitting every matched pair (no aggregate), dimension-side filter.
  spec.parity_queries.push_back(
      {"SELECT o.order_id, c.region FROM orders o "
       "JOIN customers c ON o.cust = c.cust_id WHERE c.cust_id <= $1",
       {{Value::Int(30)}}});
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  bool check_parity = false;
  bool skip_oltp = false;
  std::string json_path = "BENCH_fig6.json";
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--check-parity") {
      check_parity = true;
    } else if (a == "--skip-oltp") {
      skip_oltp = true;
    } else {
      json_path = a;
    }
  }
  if (check_parity) return RunParityGate(JoinBench());

  std::printf("Figure 6: complex-join contract\n");
  if (!skip_oltp) {
    int key = 1000000;  // result-table keys; disjoint from seed data
    RunFlow(TransactionFlow::kOrderThenExecute, "(a) order-then-execute",
            &key);
    RunFlow(TransactionFlow::kExecuteOrderParallel,
            "(b) execute-order-in-parallel", &key);
  }
  return RunAnalyticsPhase(JoinBench(), json_path);
}
