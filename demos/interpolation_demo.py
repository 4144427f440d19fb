"""Stochastic Bregman methods on a Poisson interpolation instance.

The instance is consistent (b = A x*), so the optimum attains every component
simultaneously and the stochastic gradient variance vanishes there. Constant
step sizes then converge without averaging or decreasing schedules. The
script runs plain stochastic descent against both variance-reduced methods
and prints the Bregman distance to the optimum per epoch.
"""

import argparse

from bregopt import SolverConfig, gen_interpolation, run


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--d", type=int, default=30)
    parser.add_argument("--epochs", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    problem = gen_interpolation(args.n, args.d, args.seed)
    eta = 1.0 / (2.0 * problem.meta["L_rel"])
    print(f"interpolation instance: n={args.n} d={args.d} "
          f"L_rel={problem.meta['L_rel']:.4f} eta={eta:.5f}")

    traces = {}
    for method in ("bsgd", "bsaga", "bsvrg"):
        config = SolverConfig(method=method, eta=eta, epochs=args.epochs,
                              seed=args.seed)
        traces[method] = run(config, problem)

    print(f"{'epoch':>6} " + " ".join(f"{m:>12}" for m in traces))
    length = min(len(t) for t in traces.values())
    for k in range(length):
        epoch = traces["bsgd"][k].epoch
        row = " ".join(f"{traces[m][k].dh_gap:12.4e}" for m in traces)
        print(f"{epoch:6.1f} {row}")

    print("\nfinal Bregman distance to x*:")
    for method, trace in traces.items():
        print(f"  {method:6} {trace.final.dh_gap:.4e} "
              f"({trace.final.grad_evals} component gradients)")


if __name__ == "__main__":
    main()
