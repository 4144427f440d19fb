"""Golden traces: the sha256 of each wall-free trace CSV of a fixed set of
small runs, one per method on each instance family.

A speed-up must leave every trajectory and every recorded value as it was,
bit for bit. A change that moves a trace on purpose says so and updates
the digest here.
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp

from bregopt import (
    LogBarrier,
    PoissonKL,
    Preconditioner,
    ProblemInstance,
    ReferenceFunction,
    SolverConfig,
    gen_gaussian_logistic_data,
    gen_interpolation,
    gen_preconditioned,
    gen_tomography,
    poisson_sample,
    run,
    solve_reference,
)
from bregopt.rng import make_rng


def interpolation(keep_x_star=True):
    problem = gen_interpolation(30, 4, seed=5)
    if not keep_x_star:
        problem.x_star = None
    return problem


def tomography():
    return gen_tomography(16, 6, seed=1, noise=False)  # f_star = 0, no x_star


def barrier_poisson():
    rng = make_rng(11)
    A = rng.uniform(0.0, 1.0, size=(40, 6))
    b = poisson_sample(A @ rng.uniform(0.2, 1.0, size=6), 12).astype(float)
    obj = PoissonKL(A, b, barrier_weight=0.5)
    problem = ProblemInstance(objective=obj, reference=LogBarrier(), x0=np.ones(6),
                              meta={"L_rel": obj.rel_smoothness()})
    return solve_reference(problem)


def preconditioned(sparse=False):
    data = gen_gaussian_logistic_data(120, 5, seed=3)
    if sparse:  # about 40% of the entries zeroed, the rest stored as CSR
        A, labels = data
        A[make_rng(7).random(A.shape) < 0.4] = 0.0
        data = sp.csr_matrix(A), labels
    problem = gen_preconditioned(data, n_nodes=4, N=30, n_prec=20,
                                 lam=1e-3, c_prec=1e-3, seed=3)
    return solve_reference(problem)


GAINS = {"mu_h": 1.0, "L_h": 2.0, "M": 1e-3, "L_rel": 3.0, "mu_rel": 0.1}
BREGMAN = ("bgd", "bsgd", "bsaga", "bsvrg")
# instance -> (builder, shared config fields, methods)
CASES = {
    "interpolation": (interpolation, dict(eta=10.0, epochs=3.0, seed=2, record_every=1),
                      BREGMAN + ("mu",)),
    "interpolation-gain": (interpolation, dict(gain_constants=GAINS, step_multiplier=1e4,
                                               epochs=3.0, seed=2, record_every=5), ("bsaga",)),
    "interpolation-f-star": (lambda: interpolation(keep_x_star=False),
                             dict(eta=10.0, epochs=3.0, seed=2), BREGMAN + ("mu",)),
    "tomography": (tomography, dict(step_multiplier=10.0, epochs=4.0, seed=1),
                   BREGMAN + ("mu",)),
    "barrier-poisson": (barrier_poisson, dict(epochs=4.0, seed=3), BREGMAN),
    "preconditioned": (preconditioned, dict(eta=0.5, epochs=3.0, seed=4, record_every=1),
                       BREGMAN),
    "preconditioned-csr": (lambda: preconditioned(sparse=True),
                           dict(eta=0.5, epochs=3.0, seed=4, record_every=1), BREGMAN),
}


def trace_digest(config, problem):
    csv = run(config, problem).to_csv_string()
    body = "\n".join(line.rsplit(",", 1)[0] for line in csv.splitlines())
    return hashlib.sha256(body.encode()).hexdigest()


def digests(name):
    build, fields, methods = CASES[name]
    problem = build()
    return {m: trace_digest(SolverConfig(method=m, **fields), problem) for m in methods}


# recorded before the records shared their data pass with the steps
GOLDEN = {
    # re-recorded when solve_reference took the barrier x_star from the same
    # Newton solve: the gap columns moved, the iterates did not
    # (BARRIER_POISSON_ITERATES below)
    "barrier-poisson": {
        "bgd": "31fef03cd11b2162f93090e3db40ee5c4239fd3c46e2de608299c88e769132b3",
        "bsaga": "d54ac4883d4a4f8899560fb0d51a314e0610072ff1c8cc4b1028788e6950dc56",
        "bsgd": "db205acb4679d300b3441aeeccd8ee7544325fc09f9224166a23e2419168015e",
        "bsvrg": "57fd07ce87dbc94dd8d711b7bd6e8dd511ca3635339a9d27629d94ec9724687a"
    },
    "interpolation": {
        "bgd": "ae6de1e6442faef24d002c7e71505c1cfe5ca44e051d2257f59ed7698c9ce141",
        "bsaga": "a2666086883a90f3ddeeec29d4e069b81bd9aced399d0e0d4e485d27287099e9",
        "bsgd": "adc23afa32d829709ece054e29894fa45c624947042bcb357c9aee5a78c6832f",
        "bsvrg": "da5a1c24d08b0bc7bce9fdc6588bb562301d13e1973550ae4b91b26e24b3db43",
        "mu": "552f554c317402861bfc9c1c219407608d598022ea535a28657b902bbccc6ab8"
    },
    "interpolation-f-star": {
        "bgd": "ad64dd5645600bb0849edc7e59049b6e57c8793835d7e02a562684513691de8b",
        "bsaga": "4e16c63375d19c3e3927c078bb08e1cf40d962dfeb3ad72204b93b09d37a8cd3",
        "bsgd": "060170eb217535e01ec8c98444a3c91c63da3dac92c7ddfd4f2ca60312d1835c",
        "bsvrg": "7e17af450f92bd938f3c3d4d85a5f5fdad7c607439fdcb242036dcceaecf4552",
        "mu": "c7542161be515ed2b9ec1bdd0567b53292aadcf1f2211339dc6212799e4e1b35"
    },
    "interpolation-gain": {
        "bsaga": "768bc21d235ccc4527989124dc6fa8528aac3a0317ab5d8cbba7b92d9a1886b6"
    },
    # re-recorded when solve_reference took the logistic x_star from a Newton
    # solve: dh_gap and min_df_gap moved by at most 1e-8 relative, the
    # iterates did not (PRECONDITIONED_ITERATES below); re-recorded again
    # when records took <grad f(x), x_star - x> from the margins at x and
    # x_star (LogisticL2._slope): only min_df_gap moved, by at most 8.3e-17
    # (1.5 ulp of f(x_star) = 0.39), the f_gap and dh_gap columns did not
    "preconditioned": {
        "bgd": "fa74af13823a088f371a2733ab791d493f02e1cd41edc022d242b6a0c440a152",
        "bsaga": "cf850d3b60846896b415d3cf01f573c04c8b144f3d824db4652e7c115a8bb54b",
        "bsgd": "480cf542daefc940a2fbc7e4818ad1979a7b6d351c7dc998708a210aacdbd137",
        "bsvrg": "dbb40907c49eda55065445df7c2042715d76622f757b550f60a2d62f8c4bbb95"
    },
    # recorded while sparse products went through scipy's ``@``
    "preconditioned-csr": {
        "bgd": "d0c519dd6cd7761168dd6c6f4e5a85f88f66e289d1f614da2aade83920fab8d3",
        "bsaga": "9b21a735e45dbb3cf51a3048aadb05f00e205b3bf60009d0cc4c24bf5d83ba08",
        "bsgd": "bedb08bd32f7466575a96af62a468d97a5e2ee92586a50924a3e50232dc5b45f",
        "bsvrg": "40533a423ab4ba583079d56837419bccc4fb413ab16544b98b975827e0180e04"
    },
    "tomography": {
        "bgd": "021b01f95e8b9b456771f7fa479f38ceab1fc3d61b66a26325a5342357619677",
        "bsaga": "e1c160fb7ccc01f108a33bc6cb07e6fc26a48655f10ca5db9bce7a9e34aafaca",
        "bsgd": "0c2c75f89519839a311aec9d4e004abef4deec3f6621d9d07ac100b5bb58e39a",
        "bsvrg": "7425cf4c37620b1fdbc81b8d12446ebcd943bcf4c19ac4903259e8ef02745bbb",
        "mu": "b0aa8415ec8ebf4584f9008452042da47c97e8df7e6ff4d57fe7bccff3f4c14e"
    }
}


@pytest.mark.parametrize("name", CASES)
def test_trace_digests_unchanged(name):
    assert digests(name) == GOLDEN[name]


# the trace columns that read neither x_star nor f_star
ITERATE_COLUMNS = ("iter", "epoch", "grad_evals", "comms", "eta", "gain", "halvings")


def iterate_digests(config, problem):
    """sha256 of the trace's ITERATE_COLUMNS and of its final iterate."""
    trace = run(config, problem)
    rows = "\n".join(",".join(trace._fmt(getattr(r, c)) for c in ITERATE_COLUMNS)
                     for r in trace.records)
    return [hashlib.sha256(rows.encode()).hexdigest(),
            hashlib.sha256(trace.x.tobytes()).hexdigest()]


# the preconditioned runs as far as their reference solution cannot reach:
# a change to solve_reference moves only the gap columns of GOLDEN
PRECONDITIONED_ITERATES = {
    "bgd": ["cacc55b22f99e55e8f1f6004f9225feb834f8b066d71c428c50b3033a06cd255",
            "e3f4855153d83da4302c3d19fd8baec4a49454695443fc0712945ce11d791d86"],
    "bsaga": ["66cf6dda93331046f0cd2d04729dd32440366fe5bd5b9fd571ad3a055e969a73",
              "eba3d15243cf06e3d1df66756e77999be0865cfc69f031057567abc29bbb675f"],
    "bsgd": ["60a8edfb16d359a9a63a18455097012ecdbf3f283ac78dc808fd5b809df98d26",
             "bfaaa3df94259cc271c6bbbfc4fae78e8ae644707a2b75c8d37c36e26d1a12b6"],
    "bsvrg": ["66cf6dda93331046f0cd2d04729dd32440366fe5bd5b9fd571ad3a055e969a73",
              "83ff9cf20325d6ab33523ec1af2e34afe779735fdf8a3719f3ef96ec4194dc42"],
}


# the barrier-poisson runs likewise, recorded while its x_star came from a
# Bregman gradient loop under run()'s halving safeguard
BARRIER_POISSON_ITERATES = {
    "bgd": ["6096e5631d116fc3f26bb208e8c0edab1bb4ec1bcfe2ee77b5d016cc6d3dd1ed",
            "01f138947b39c0cfcf9979b762e2a9a9804badc4dc2764c74e678695bc3f9967"],
    "bsaga": ["33ebf30252b0fe1975c371d416f7af6e6d0dd10eba3c60534a63ef4438d182d6",
              "9cc93c11ef3fe31500a14d6bc847683d8e61dc7b90db93dd3f57dec4683f9c35"],
    "bsgd": ["6f252c32fc89dbae488607a07301afc9b751200205f9531043e375de11cd44bc",
             "6bce0e4308bfdb2382e2ee9e44ad17d3e821c5efccf1960c63ebd63d933433ac"],
    "bsvrg": ["93eaf2792b25f9004e4178e316e464e144c78e567c38a0a8de39182a8b2cc5b7",
              "dada7134b0a35e00877e04c1a78bf2547793bd03dcaab5c0f1421dbb27acfd04"],
}
ITERATES = {"preconditioned": PRECONDITIONED_ITERATES,
            "barrier-poisson": BARRIER_POISSON_ITERATES}


def all_iterate_digests(name):
    build, fields, methods = CASES[name]
    problem = build()
    return {m: iterate_digests(SolverConfig(method=m, **fields), problem) for m in methods}


@pytest.mark.parametrize("name", ITERATES)
def test_preconditioned_iterates_do_not_depend_on_the_reference_solve(name):
    assert all_iterate_digests(name) == ITERATES[name]


class StrictRun:
    """A run state that offers run() only the three methods of the run
    protocol: grad (for x0), advance and divergence."""

    __slots__ = ("grad", "advance", "divergence")

    def __init__(self, mirror):
        self.grad, self.advance, self.divergence = mirror.grad, mirror.advance, mirror.divergence


@pytest.mark.parametrize("name", CASES)
def test_runs_need_only_the_run_protocol(monkeypatch, name):
    made = []
    for cls in (ReferenceFunction, Preconditioner):
        def strict(self, _for_run=cls.for_run):
            made.append(StrictRun(_for_run(self)))
            return made[-1]
        monkeypatch.setattr(cls, "for_run", strict)
    assert digests(name) == GOLDEN[name]
    assert len(made) >= len(GOLDEN[name])


if __name__ == "__main__":  # print the tables above
    import json
    print(json.dumps({name: digests(name) for name in CASES}, indent=4))
    for name in ITERATES:
        print(json.dumps({name: all_iterate_digests(name)}, indent=4))
