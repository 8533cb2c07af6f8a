// §5.1 "Comparison with Ethereum's order then execute": the same
// order-then-execute pipeline with transactions executed and committed one
// at a time instead of concurrently via SSI.
// Paper: serial execution reaches only ~800 tps vs ~1800 tps, i.e. about
// 40% of the concurrent pipeline.
#include "bench_common.h"

using namespace brdb;
using namespace brdb::bench;

namespace {

double PeakThroughput(bool serial, int* key) {
  NetworkOptions opts =
      BenchOptions(TransactionFlow::kOrderThenExecute, /*block_size=*/100);
  opts.node.serial_execution = serial;
  auto net = BlockchainNetwork::Create(opts);
  if (!RegisterWorkloadContracts(net.get()).ok() || !net->Start().ok()) {
    return -1;
  }
  Session* client = net->CreateSession("org1", "loadgen");
  if (!net->DeployContract("CREATE TABLE kv (k INT PRIMARY KEY, "
                           "payload TEXT)")
           .ok()) {
    return -1;
  }
  double peak = 0;
  for (double rate : {800.0, 1600.0, 3200.0}) {
    int total = static_cast<int>(rate * 2);
    int base = *key;
    *key += total;
    LoadResult r = RunLoad(net.get(), client, "simple", rate, total,
                           [&](int i) { return SimpleArgs(base + i); });
    if (r.committed_tps > peak) peak = r.committed_tps;
  }
  net->Stop();
  return peak;
}

}  // namespace

int main() {
  std::printf("Ethereum-style serial baseline vs concurrent SSI execution\n");
  int key = 0;
  double concurrent = PeakThroughput(false, &key);
  double serial = PeakThroughput(true, &key);
  std::printf("%-24s %-14s\n", "mode", "peak_tps");
  std::printf("%-24s %-14.1f\n", "concurrent (SSI)", concurrent);
  std::printf("%-24s %-14.1f\n", "serial (Ethereum-style)", serial);
  if (concurrent > 0) {
    std::printf("serial/concurrent ratio: %.2f (paper: ~0.4)\n",
                serial / concurrent);
  }
  return 0;
}
