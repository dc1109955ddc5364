"""Independent correctness checks for the benchmark workloads.

Nothing here calls the program's numerical code or compares against a
stored copy of its output: example1's field, the functional
V = |phi(0)|^2 + 2 * integral of phi_2^2, the method-of-steps RK4 scheme
and the windowed sup norm are written out again from their definitions
and evaluated on node values with plain Python and NumPy.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# certify: example1 and V on piecewise-linear histories

def example1_field(x, xd, v):
    """f of example1 at state x, delayed state xd and scalar input v."""
    q = x[0] * x[0] + xd[1] * xd[1]
    return np.array([-0.5 * x[0] + xd[1] + x[1] * q,
                     -2.0 * x[1] - x[0] * q + v])


def _nodes(phi):
    grid = np.asarray(phi.grid, dtype=float)
    values = np.asarray(phi.values, dtype=float)
    return grid, values, values[-1], values[0]


def _sup2(values):
    return float(np.max(np.sum(values * values, axis=1)))


def v_derivative(x0, xd, w):
    """Derivative of V along slope w: 2 x0'w + 2 x0_2^2 - 2 xd_2^2."""
    return 2.0 * float(x0 @ w) + 2.0 * x0[1] ** 2 - 2.0 * xd[1] ** 2


def dissipation_residual(phi, v, a, c, gain):
    """D+V + a |x0|^2 - c sup^2 - gain |v|^2 along example1."""
    _, values, x0, xd = _nodes(phi)
    v = float(np.atleast_1d(v)[0])
    w = example1_field(x0, xd, v)
    return (v_derivative(x0, xd, w) + a * float(x0 @ x0)
            - c * _sup2(values) - gain * v * v)


def right_growth_residual(phi, v, sigma):
    """x0' f - sigma (sup^2 + |v|^2) along example1 with P = I."""
    _, values, x0, xd = _nodes(phi)
    v = float(np.atleast_1d(v)[0])
    w = example1_field(x0, xd, v)
    return float(x0 @ w) - sigma * (_sup2(values) + v * v)


def w_dissipation_bound(phi, v, eps, a, c, gain):
    """Upper bound on the dissipation residual of W = V + eps MaxExp(I).

    The upper right-hand derivative of MaxExp(I) is -2 V0 when the max is
    attained only before 0, and max(-2 V0, 2 x0'w) when it is attained
    at 0 (the branch inequality of acceptance criterion 07).  The node
    maximum of exp(2 tau)|phi(tau)|^2 is a lower bound on V0, so
    max(-2 node_max, 2 x0'w) bounds the derivative in both branches.
    """
    grid, values, x0, xd = _nodes(phi)
    v = float(np.atleast_1d(v)[0])
    w = example1_field(x0, xd, v)
    node_max = float(np.max(np.exp(2.0 * grid) * np.sum(values * values, axis=1)))
    d_max = max(-2.0 * node_max, 2.0 * float(x0 @ w))
    return (v_derivative(x0, xd, w) + eps * d_max + a * float(x0 @ x0)
            - c * _sup2(values) - gain * v * v)


# ---------------------------------------------------------------------------
# envelope

def envelope_gap(k, eta, x0_values, times, values):
    """min over t >= 0 of k sup|x0| exp(-eta t) - |x(t)|, with sup|x0|
    taken over the nodes of the piecewise-linear initial history."""
    sup0 = math.sqrt(_sup2(np.asarray(x0_values)))
    sel = times >= 0.0
    mag = np.sqrt(np.sum(values[sel] ** 2, axis=1))
    return float(np.min(k * sup0 * np.exp(-eta * times[sel]) - mag)), k * sup0


# ---------------------------------------------------------------------------
# perturbed: example2 with the delayed uncertainty, by the method of steps

def reference_example2(x0_grid, x0_values, delay, epsilon, dt, nsteps, input_at):
    """Classical RK4 by the method of steps for example2 with the built-in
    delayed uncertainty d(phi) = phi(-delay):

        x1' = -0.5 x1 + (1 + eps) xd1 + x2 q,
        x2' = -2 x2 - x1 q + v + eps xd2,     q = x1^2 + xd2^2.

    Delayed values are read piecewise-linearly: from the initial history
    before 0, afterwards from the computed grid values (a grid node at
    the stage times t and t + dt, the mean of two nodes at t + dt/2).
    `input_at(s)` gives the scalar input at stage time s.  Returns the
    states at t = 0, dt, ..., nsteps dt.
    """
    k = int(round(delay / dt))
    g = np.asarray(x0_grid, dtype=float)
    h0 = np.asarray(x0_values, dtype=float)
    xs = [(float(h0[-1, 0]), float(h0[-1, 1]))]

    def delayed(j2):
        # state at time (j2 / 2) dt - delay, for a half-step index j2
        if j2 <= 2 * k:
            s = 0.5 * j2 * dt - delay
            return (float(np.interp(s, g, h0[:, 0])),
                    float(np.interp(s, g, h0[:, 1])))
        i, odd = divmod(j2 - 2 * k, 2)
        if not odd:
            return xs[i]
        a, b = xs[i], xs[i + 1]
        return (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))

    def f(x1, x2, xd, v):
        q = x1 * x1 + xd[1] * xd[1]
        return (-0.5 * x1 + (1.0 + epsilon) * xd[0] + x2 * q,
                -2.0 * x2 - x1 * q + v + epsilon * xd[1])

    half = 0.5 * dt
    for j in range(nsteps):
        t = dt * j
        x1, x2 = xs[j]
        d0, dm, d1 = delayed(2 * j), delayed(2 * j + 1), delayed(2 * j + 2)
        vm = input_at(t + half)
        a1, a2 = f(x1, x2, d0, input_at(t))
        b1, b2 = f(x1 + half * a1, x2 + half * a2, dm, vm)
        c1, c2 = f(x1 + half * b1, x2 + half * b2, dm, vm)
        e1, e2 = f(x1 + dt * c1, x2 + dt * c2, d1, input_at(t + dt))
        xs.append((x1 + dt / 6.0 * (a1 + 2.0 * b1 + 2.0 * c1 + e1),
                   x2 + dt / 6.0 * (a2 + 2.0 * b2 + 2.0 * c2 + e2)))
    return np.array(xs)


def window_max(times, values, delay, t_out):
    """Brute-force sup of |x| over [t - delay, t] of the piecewise-linear
    dense output, for each t in t_out: the largest node norm inside the
    window, or the interpolated value at the window's left edge."""
    mag = np.sqrt(np.sum(values * values, axis=1))
    out = np.empty(len(t_out))
    for row, t in enumerate(t_out):
        lo = t - delay
        inside = (times >= lo) & (times <= t)
        peak = float(np.max(mag[inside]))
        i = int(np.argmax(times >= lo))
        if i > 0 and times[i] > lo:
            lam = (lo - times[i - 1]) / (times[i] - times[i - 1])
            edge = (1.0 - lam) * values[i - 1] + lam * values[i]
            peak = max(peak, math.sqrt(float(edge @ edge)))
        out[row] = peak
    return out
