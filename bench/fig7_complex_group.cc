// Figure 7: peak throughput and micro metrics vs block size for the
// complex-group contract (aggregate over subgroups, ORDER BY + LIMIT to
// keep the max, write it out), for both flows.
// Paper shape: faster than complex-join (at block size 100: ~1.75x for
// order-then-execute, ~1.6x for execute-order-in-parallel), still well
// below the simple contract.
#include "bench_common.h"

using namespace brdb;
using namespace brdb::bench;

namespace {

void RunFlow(TransactionFlow flow, const char* label, int* key) {
  std::printf("-- %s --\n", label);
  std::printf("%-10s %-14s %-8s %-8s %-8s\n", "blocksize", "peak_tps", "bpt",
              "bet", "tet");
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
          net.get(), client, "complex_group", rate, total, [&](int i) {
            // Group over a sliding customer range.
            int lo = (base + i) % 10;
            return std::vector<Value>{Value::Int(base + i), Value::Int(lo),
                                      Value::Int(lo + 9)};
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

/// The contract's analytical core as a client query: join + grouped
/// aggregate + ORDER BY over the committed history.
AnalyticsBench GroupBench() {
  AnalyticsBench spec;
  spec.name = "fig7";
  spec.measured_sql =
      "SELECT c.region, SUM(o.amount) AS total FROM orders o "
      "JOIN customers c ON o.cust = c.cust_id "
      "WHERE c.cust_id >= $1 AND c.cust_id <= $2 "
      "GROUP BY c.region ORDER BY total DESC, c.region ASC";
  spec.measured_params = {{Value::Int(0), Value::Int(99)},
                          {Value::Int(10), Value::Int(59)},
                          {Value::Int(25), Value::Int(74)}};
  spec.parity_queries.push_back({spec.measured_sql, spec.measured_params});
  // Grouped aggregate without the join (slot-resolved hash aggregation).
  spec.parity_queries.push_back(
      {"SELECT o.cust, COUNT(*) AS n, SUM(o.amount) AS total FROM orders o "
       "GROUP BY o.cust ORDER BY o.cust ASC",
       {std::vector<Value>{}}});
  // Top-1 (ORDER BY aggregate + LIMIT), the contract's exact statement.
  spec.parity_queries.push_back(
      {"SELECT c.region, SUM(o.amount) AS total FROM orders o "
       "JOIN customers c ON o.cust = c.cust_id "
       "WHERE c.cust_id >= $1 AND c.cust_id <= $2 "
       "GROUP BY c.region ORDER BY total DESC, c.region ASC LIMIT 1",
       {{Value::Int(0), Value::Int(49)}}});
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  bool check_parity = false;
  bool skip_oltp = false;
  std::string json_path = "BENCH_fig7.json";
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
  if (check_parity) return RunParityGate(GroupBench());

  std::printf("Figure 7: complex-group contract\n");
  if (!skip_oltp) {
    int key = 2000000;
    RunFlow(TransactionFlow::kOrderThenExecute, "(a) order-then-execute",
            &key);
    RunFlow(TransactionFlow::kExecuteOrderParallel,
            "(b) execute-order-in-parallel", &key);
  }
  return RunAnalyticsPhase(GroupBench(), json_path);
}
