// Table 4: order-then-execute micro metrics at a fixed arrival rate near
// saturation, across block sizes. Columns match the paper:
//   bs (block size), brr (blocks received/s), bpr (blocks processed/s),
//   bpt (block processing time ms), bet (block execution time ms),
//   bct (block commit time ms), tet (txn execution time ms),
//   su (system utilization %).
// Paper shape: larger blocks -> fewer blocks/s but bigger bpt; the sum of
// m small blocks' bpt exceeds one m-sized block's bpt; su near 100% at
// saturation.
#include "bench_common.h"

using namespace brdb;
using namespace brdb::bench;

int main() {
  std::printf("Table 4: order-then-execute micro metrics (simple contract)\n");
  std::printf("%-6s %-8s %-8s %-8s %-8s %-8s %-8s %-8s\n", "bs", "brr",
              "bpr", "bpt", "bet", "bct", "tet", "su%%");

  const size_t kBlockSizes[] = {10, 100, 500};
  const double kRate = 2400;  // near this host's saturation
  int key = 0;

  for (size_t bs : kBlockSizes) {
    auto net = BlockchainNetwork::Create(
        BenchOptions(TransactionFlow::kOrderThenExecute, bs));
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
    std::printf("%-6zu %-8.1f %-8.1f %-8.2f %-8.2f %-8.2f %-8.3f %-8.1f\n",
                bs, r.node0.brr, r.node0.bpr, r.node0.bpt_ms, r.node0.bet_ms,
                r.node0.bct_ms, r.node0.tet_ms, r.node0.su);
    std::fflush(stdout);
    net->Stop();
  }
  return 0;
}
