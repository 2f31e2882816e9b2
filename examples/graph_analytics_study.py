#!/usr/bin/env python
"""Graph-analytics study: BARD variants on LIGRA-style kernels.

Graph workloads scatter vertex updates across the whole vertex array, so
their LLC writeback stream mixes many banks with little spatial structure
- the regime where the choice between evicting (BARD-E) and cleansing
(BARD-C) matters most.  The whole kernels x variants grid is one
:class:`repro.ExperimentSpec`; the session runs the 16 simulations in
parallel (the baseline per kernel is shared automatically), and each
kernel's report is a ``ResultSet`` query.
"""

from repro import ExperimentSpec, Session, small_8core

KERNELS = ["cf", "bc", "pagerank", "bellmanford"]
POLICIES = ["baseline", "bard-e", "bard-c", "bard-h"]


def main() -> None:
    spec = ExperimentSpec(workloads=KERNELS, configs=small_8core(),
                          policies=POLICIES, name="graph-analytics")
    rs = Session(parallel=4).run(spec)

    for kernel, kset in rs.group_by("workload").items():
        base = kset.filter(policy="baseline").only().result
        print(f"\n{kernel}: baseline BLP {base.write_blp:.1f}, "
              f"writing {base.time_writing_pct:.1f}% of time")
        speedups = kset.speedup_vs("policy")
        for policy in POLICIES[1:]:
            obs = speedups.filter(policy=policy).only()
            r = obs.result
            line = (f"  {policy:<7} speedup "
                    f"{obs.value('speedup_pct'):+6.2f}%"
                    f"  BLP {r.write_blp:5.1f}"
                    f"  W% {r.time_writing_pct:5.1f}")
            if policy == "bard-h":
                line += (f"  [{r.override_pct:.1f}% override, "
                         f"{r.cleanse_pct:.1f}% cleanse]")
            print(line)


if __name__ == "__main__":
    main()
