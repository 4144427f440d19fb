"""Test-side oracles: routes to the package's results that are independent
of the code paths under test."""

from bregopt import DomainViolation, StepOutOfDomain


def mirror_step(ref, x, g, eta):
    """The Bregman mirror step grad h*(grad h(x) - eta g) through the public
    checked maps, independent of ``ReferenceFunction.advance``.

    ``x`` is checked by ``grad`` and the dual point by ``grad_conjugate``;
    a DomainViolation of the dual point is raised as StepOutOfDomain with
    the same index, so a replay halves the step as ``run()`` does. A
    closed-form map also takes a stack of estimates ``g``.
    """
    y = ref.grad(x) - eta * g
    try:
        return ref.grad_conjugate(y)
    except DomainViolation as exc:
        raise StepOutOfDomain(
            f"{ref.kind}: mirror step left the conjugate domain at component {exc.index}",
            index=exc.index) from exc
