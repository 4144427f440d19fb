"""Communication budgets under statistical preconditioning.

Ten simulated nodes share a logistic regression problem. The reference
function is node zero's local objective plus a small quadratic, so one
mirror step costs a local inner solve instead of a network round. Full
gradient descent pays one full communication round per step; the stochastic
methods query one node at a time. The script reports the communication cost
each method needs to reach a sequence of suboptimality thresholds.
"""

import argparse

from bregopt import (
    SolverConfig,
    gen_gaussian_logistic_data,
    gen_preconditioned,
    run,
    solve_reference,
)


def comms_to_reach(trace, threshold):
    for record in trace.records:
        if record.f_gap <= threshold:
            return record.comms
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=10)
    parser.add_argument("--samples", type=int, default=200,
                        help="rows held by each node")
    parser.add_argument("--d", type=int, default=20)
    parser.add_argument("--epochs", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    data = gen_gaussian_logistic_data(args.nodes * args.samples, args.d,
                                      args.seed)
    problem = gen_preconditioned(
        data, n_nodes=args.nodes, N=args.samples, n_prec=args.samples,
        lam=1e-5, c_prec=1e-5, seed=args.seed,
    )
    solve_reference(problem)
    print(f"distributed instance: {args.nodes} nodes x {args.samples} rows, "
          f"d={args.d}, f* = {problem.f_star:.6f}")

    runs = {
        "bgd": SolverConfig(method="bgd", eta=0.5, epochs=args.epochs,
                            seed=args.seed),
        "bsgd": SolverConfig(method="bsgd", eta=0.05, epochs=args.epochs,
                             seed=args.seed, record_every=1),
        "bsaga": SolverConfig(method="bsaga", eta=0.05, epochs=args.epochs,
                              seed=args.seed, record_every=1),
    }
    traces = {name: run(config, problem) for name, config in runs.items()}

    thresholds = [10.0 ** -k for k in range(1, 7)]
    print(f"\ncommunication cost to reach an objective gap:")
    print(f"{'gap':>8} " + " ".join(f"{m:>8}" for m in traces))
    for threshold in thresholds:
        cells = []
        for trace in traces.values():
            c = comms_to_reach(trace, threshold)
            cells.append(f"{c:8.0f}" if c is not None else f"{'-':>8}")
        print(f"{threshold:8.0e} " + " ".join(cells))

    print("\nfinal objective gaps:")
    for name, trace in traces.items():
        print(f"  {name:6} {trace.final.f_gap:.4e} "
              f"(comms {trace.final.comms:.0f})")


if __name__ == "__main__":
    main()
