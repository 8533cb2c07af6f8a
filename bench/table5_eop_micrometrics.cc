// Table 5: execute-order-in-parallel micro metrics at a fixed arrival
// rate, across block sizes. Adds mt (missing transactions/s) to the Table
// 4 columns. Paper shape: bet lower than order-then-execute (transactions
// are already executing when the block arrives), bct somewhat higher.
#include "bench_common.h"

using namespace brdb;
using namespace brdb::bench;

int main() {
  std::printf(
      "Table 5: execute-order-in-parallel micro metrics (simple contract)\n");
  std::printf("%-6s %-8s %-8s %-8s %-8s %-8s %-8s %-8s %-8s\n", "bs", "brr",
              "bpr", "bpt", "bet", "bct", "tet", "mt", "su%%");

  const size_t kBlockSizes[] = {10, 100, 500};
  const double kRate = 2400;
  int key = 0;

  for (size_t bs : kBlockSizes) {
    auto net = BlockchainNetwork::Create(
        BenchOptions(TransactionFlow::kExecuteOrderParallel, bs));
    if (!RegisterWorkloadContracts(net.get()).ok() || !net->Start().ok()) {
      return 1;
    }
    Session* client = net->CreateSession("org1", "loadgen");
    if (!net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, "
                             "payload TEXT)")
             .ok()) {
      return 1;
    }
    int total = static_cast<int>(kRate * 3);
    int base = key;
    key += total;
    LoadResult r = RunLoad(net.get(), client, "simple", kRate, total,
                           [&](int i) { return SimpleArgs(base + i); });
    std::printf(
        "%-6zu %-8.1f %-8.1f %-8.2f %-8.2f %-8.2f %-8.3f %-8.1f %-8.1f\n",
        bs, r.node0.brr, r.node0.bpr, r.node0.bpt_ms, r.node0.bet_ms,
        r.node0.bct_ms, r.node0.tet_ms, r.node0.mt, r.node0.su);
    std::fflush(stdout);
    net->Stop();
  }
  return 0;
}
