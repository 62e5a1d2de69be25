"""_joint_refit's step against the one it replaced.

Each Levenberg-Marquardt step forms the Gram G = J J' by gemm against a
copy of the Jacobian and solves the damped system by LU.  The step before
formed G by np.matmul(jac, jac.T), which BLAS runs as syrk, and solved by
lstsq; reference_refit keeps that step, in zeroed buffers, as the reference
the refit must agree with.  The two round differently, so they agree to a
stated tolerance, not bit for bit.
"""

import numpy as np
import pytest

import test_decomposer
from transient_lab import decomposer, load_signal_spec, synthesize_samples
from transient_lab.decomposer import (LM_DAMPING, LM_GIVE_UP_RATIO, LM_MAX_DAMPING,
                                      LM_MAX_STEPS, LM_RSS_TOL, _joint_refit)
from transient_lab.signal_core import ROUNDING_FLOOR, input_record

# the relative agreement of every rate and coefficient with the reference on
# TestJointRefitPinned's inputs, which agree to 8.1e-11 at most
AGREEMENT = 1e-9
# a sum of squares in double fixes the point of a minimum only to about
# sqrt(eps) of itself, its change there being second order; on noisy input
# the refit ends at the minimum, and the noisy refits below agree to 1.5e-9
FLAT_MINIMUM_AGREEMENT = np.finfo(float).eps ** 0.5
# max_damping's rates run off to about 1e3 before no damped step lowers the
# sum of squares; the run amplifies the last-bit differences of each step,
# and its ends agree to 2.3e-8 of themselves
RUN_OFF_AGREEMENT = 1e-6


def reference_refit(grid, values, rates, coeffs, rss_goal):
    """_joint_refit with the step it took before: G by syrk, the damped
    system by lstsq."""
    k = len(rates)
    rss_floor = len(grid) * ROUNDING_FLOOR ** 2
    params = np.concatenate((rates, coeffs))
    jac, spare = np.zeros((2, 2 * k, len(grid)))
    basis = jac[k:]
    with np.errstate(all="ignore"):
        np.exp(np.multiply(-params[:k, None], grid, out=basis), out=basis)
        resid = values - np.matmul(params[k:], basis)
        rss = float(np.dot(resid, resid))
        if not np.isfinite(rss):
            return params[:k], params[k:], basis, np.inf
        lam = LM_DAMPING
        for steps in range(LM_MAX_STEPS):
            if rss <= rss_floor:
                break
            np.multiply(basis, grid, out=jac[:k])
            jac[:k] *= -params[k:, None]
            gram = np.matmul(jac, jac.T)
            scale = gram.diagonal() ** 0.5
            scale[scale == 0.0] = 1.0
            gram /= scale[:, None] * scale
            grad = np.matmul(jac, resid) / scale
            if not (np.isfinite(gram).all() and np.isfinite(grad).all()):
                break
            while True:
                damped = gram.copy()
                damped.flat[::2 * k + 1] += lam
                trial = params + np.linalg.lstsq(damped, grad, rcond=None)[0] / scale
                if np.isfinite(trial).all() and (trial[:k] > 0.0).all():
                    trial_basis = spare[k:]
                    np.exp(np.multiply(-trial[:k, None], grid, out=trial_basis), out=trial_basis)
                    trial_resid = values - np.matmul(trial[k:], trial_basis)
                    trial_rss = float(np.dot(trial_resid, trial_resid))
                    if trial_rss <= rss:
                        break
                lam *= 10.0
                if lam > LM_MAX_DAMPING:
                    return params[:k], params[k:], basis, rss
            jac, spare, basis = spare, jac, trial_basis
            drop = rss - trial_rss
            params, resid, rss = trial, trial_resid, trial_rss
            if drop <= LM_RSS_TOL * (rss + drop):
                break
            if (rss * (rss / (rss + drop)) ** (LM_MAX_STEPS - 1 - steps)
                    > LM_GIVE_UP_RATIO * rss_goal):
                break
            lam /= 10.0
    return params[:k], params[k:], basis, rss


def recorded_refit(monkeypatch, refit, solver, grid, values, rates, coeffs, goal):
    """refit's rates, coefficients and rss, and how it ended: its steps, each
    a run of damped systems with one gradient, handed to np.linalg.<solver>;
    whether its last system was damped past LM_MAX_DAMPING / 10, the damping
    having run off; whether it landed within goal; and whether its rss is
    finite.  Rejected trials are not counted: near a minimum, whether a
    trial's sum of squares rises is a matter of rounding."""
    systems = []
    solve = getattr(np.linalg, solver)

    def recorded(damped, grad, **kwargs):
        systems.append((grad, damped[0, 0]))
        return solve(damped, grad, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, solver, recorded)
        rates, coeffs, _, rss = refit(grid, values, rates, coeffs, goal)
    steps = sum(1 for i, (grad, _) in enumerate(systems)
                if i == 0 or grad is not systems[i - 1][0])
    ran_off = bool(systems) and systems[-1][1] > LM_MAX_DAMPING / 10.0
    return rates, coeffs, (steps, ran_off, rss <= goal, np.isfinite(rss))


def assert_agrees(monkeypatch, args, rel):
    """The refit and the reference end the same way, and at rates and
    coefficients within rel of each other."""
    got_rates, got_coeffs, got_end = recorded_refit(monkeypatch, _joint_refit, "solve", *args)
    want_rates, want_coeffs, want_end = recorded_refit(monkeypatch, reference_refit, "lstsq",
                                                       *args)
    assert got_end == want_end
    np.testing.assert_allclose(got_rates, want_rates, rtol=rel, atol=0.0)
    np.testing.assert_allclose(got_coeffs, want_coeffs, rtol=rel, atol=0.0)


@pytest.mark.parametrize("name", ["rounding_floor", "rss_tol", "slow_start", "projected_drop",
                                  "max_steps", "max_damping", "non_finite_start"])
def test_pinned_cases_agree_with_the_reference(monkeypatch, name):
    # one input for each way the refit ends (TestJointRefitPinned)
    pinned = test_decomposer.TestJointRefitPinned
    rel = RUN_OFF_AGREEMENT if name == "max_damping" else AGREEMENT
    assert_agrees(monkeypatch, (pinned.GRID, *pinned.case(name)), rel)


@pytest.mark.parametrize("seed", range(40))
def test_noisy_two_term_refits_agree_with_the_reference(monkeypatch, seed):
    # data/two_term.json on compare's default grid at one of three noise
    # levels, in units of its peak, refitted from rates and coefficients up
    # to 20% off the truth
    truth = load_signal_spec(test_decomposer.DATA / "two_term.json")
    sigma = (1e-6, 1e-4, 1e-3)[seed % 3]
    grid = np.linspace(0.0, 40.0, 4001)
    samples = synthesize_samples(truth, grid, noise_sigma=sigma, seed=seed)
    record = input_record(grid, samples.values, 0.01)
    rng = np.random.default_rng(seed)
    rates = truth.rates * rng.uniform(0.8, 1.2, 2)
    coeffs = truth.coefficients * rng.uniform(0.8, 1.2, 2) / record.peak
    assert_agrees(monkeypatch, (record.grid, record.values, rates, coeffs, record.rss_goal),
                  FLAT_MINIMUM_AGREEMENT)


def test_singular_damped_system_is_a_rejected_step(monkeypatch, capfd):
    # two equal terms make G singular.  A damping below half an ulp of G's
    # unit diagonal adds nothing to it, so G + lam I is G, and LU finds it
    # singular; the damping reaches 1e-17 after eight accepted steps from
    # LM_DAMPING.  The step is rejected and the damping grows until it damps
    monkeypatch.setattr(decomposer, "LM_DAMPING", 1e-20)
    grid = np.linspace(0.0, 40.0, 401)
    rates, coeffs, basis, rss = _joint_refit(grid, np.exp(-grid) + np.exp(-2.0 * grid),
                                             [1.5, 1.5], [1.0, 1.0], 1e-20)
    assert np.isfinite(rates).all() and (rates > 0.0).all()
    assert np.isfinite(coeffs).all() and np.isfinite(rss)
    assert capfd.readouterr().err == ""
