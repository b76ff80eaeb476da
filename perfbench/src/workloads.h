// The workloads. Each fills `report` with the end-to-end metrics
// (args.trace false) or the per-layer metrics (args.trace true), plus
// attempted/failed counts and diagnostics; set-up failures die without a
// result.

#ifndef KM_PERFBENCH_WORKLOADS_H_
#define KM_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace kmb {

/// Open loop over loopback TCP against two warm tenants.
void RunWireWarm(const RunArgs& args, Report* report);
/// Closed loop, in process, each distinct text once on cold engines.
void RunColdStream(const RunArgs& args, Report* report);

/// Compares `digest` with the one an earlier run of the same workload and
/// seed left in args.out_dir (a mismatch fails the run), or records it, and
/// prints it as a note. run.py names out_dir by a hash of the sources, so
/// only runs of the same code (measured and traced, repeated sets) are
/// compared; the printed digest lets a caller compare across versions.
void CheckDigest(const RunArgs& args, uint64_t digest, Report* report);

}  // namespace kmb

#endif  // KM_PERFBENCH_WORKLOADS_H_
