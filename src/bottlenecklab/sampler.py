"""Local Gibbs samplers for commuting-projector models.

Two constructions, both single-site Metropolis moves packaged as exact
Kraus channels in monomial form over the model's label basis (see
channel.MonomialKraus and model.label_basis). The diagonal variant flips
one bit of the computational basis with an acceptance amplitude read off
the energy vector. The CSS variant flips one Pauli on the CSS eigenstates
|x, z>: the flip moves each label to one label (with a phase), and the
energy jump omega it causes is the label energy of the image less its
own. None of that depends on beta, so it is one move table per
family, site and flavor, kept on the label basis (flips: per site list,
on H); a beta only adds the amplitudes sqrt(q min(1, e^{-beta omega}))
of the jump operators sigma P_omega, filled column by column without any
dense product, both samplers' acceptances from markov._accept. In markov's XOR layout both keep (k, 1) masks: a flip's
bit, or a CSS move's label shift per jump, then 0 to stay. Both build
through channel._trusted_channel, and one check (_checked) passes every
channel before it is returned: its column sums are 1, so it is trace
preserving, and one step of its chain (markov.StochasticMatrix.step,
the one product kernel) fixes the Gibbs vector H.gibbs keeps for beta,
which the channel then carries (KrausChannel.fixes). The
CSS variant reads E from the labels (W, E) of H0, which build_hamiltonian
sets over label_basis of the checks, so H0 W = W diag(E) ties that Gibbs
vector to H0; an H0 without labels over that basis is refused.
"""

import numpy as np

from . import numerics as tol
from .channel import _trusted_channel
from .errors import EmptySchedule, NotCommuting, NotDiagonal, NotFixedPoint, NotTracePreserving
from .markov import _accept
from .model import label_basis, label_energies
from .subspace import identity_basis

__all__ = [
    "metropolis_site_channel",
    "css_metropolis_channel",
    "sweep_schedule",
]

DEFAULT_ATTEMPT = 0.5


def metropolis_site_channel(H, beta, site, attempt_prob=DEFAULT_ATTEMPT):
    """Single-bit-flip Metropolis move on a diagonal Hamiltonian.

    Kraus pair {K_flip, K_stay}: the flip carries amplitude
    sqrt(q * min(1, e^{-beta dE})) into the flipped basis state and the
    stay operator completes trace preservation on the diagonal; the
    one-site case of _site_channels."""
    return _site_channels(H, beta, [site], attempt_prob)[0]


def _site_channels(H, beta, sites, attempt_prob):
    """metropolis_site_channel at every site, from one table kept on H
    (_site_moves) and one amplitude pass. Forms are views of the stacks,
    bit for bit the one-site build's (coef held real); each is _checked
    against the Gibbs vector p and carries it (fixes)."""
    if not H.is_diagonal:
        raise NotDiagonal("site Metropolis needs a diagonal Hamiltonian")
    if not 0 < attempt_prob <= 1:
        raise ValueError(f"attempt_prob {attempt_prob} outside (0, 1]")
    for site in sites:
        if not 0 <= site < H.n:
            raise ValueError(f"site {site} outside register of {H.n}")
    moves, jump = H.kept(_site_moves, tuple(sites))
    coef = _accept(jump, beta, attempt_prob)
    coef = np.stack([coef, 1.0 - coef], axis=1)
    np.sqrt(coef, out=coef)
    # detailed balance makes the diagonal Gibbs vector exactly stationary
    p, basis = H.gibbs(beta)[0], identity_basis(H.n)
    return [
        _checked(_trusted_channel(basis, c, a, w), p, f"site {site}")
        for site, c, a, w in zip(sites, moves, coef, coef**2)
    ]


def _checked(chan, p, where):
    """chan, after the two checks every sampled channel passes: trace
    preservation, the column sums of its monomial form (masks permute the
    labels, so each T_m^dag T_m is diagonal), within KRAUS_TRACE_TOL, and
    the Gibbs residual ||M p - p||_1 of its chain within
    GIBBS_FIXED_POINT_TOL (a NaN fails both). chan then carries p (fixes)."""
    resid = chan.monomial.trace_residual()
    if not resid <= tol.KRAUS_TRACE_TOL:
        raise NotTracePreserving(f"sum of K†K deviates from identity by {resid:.3e}")
    resid = chan.monomial.chain.residual(p)
    if not resid <= tol.GIBBS_FIXED_POINT_TOL:
        raise NotFixedPoint(f"Gibbs residual {resid:.3e} on {where}")
    chan.fixes = p
    return chan


def _site_moves(H, sites):
    """(S, 2, 1) Kraus masks (the site's bit, then 0 to stay) and (S, dim)
    uphill jumps max(E[j ^ bit] - E[j], 0) of the sites: fixed by H."""
    E, bits = H.diagonal(), 1 << (H.n - 1 - np.array(sites, dtype=np.int64))
    jump = E[np.arange(1 << H.n) ^ bits[:, None]]
    jump -= E
    np.maximum(jump, 0, out=jump)
    return np.stack([bits, np.zeros_like(bits)], axis=1)[:, :, None], jump


def css_metropolis_channel(H0, beta, site, flavor, attempt_prob=DEFAULT_ATTEMPT):
    """Energy-resolved single-Pauli Metropolis move for a CSS model.

    The flavor Pauli sigma at the site anticommutes with the opposing
    checks touching that site; their syndromes give the energy jump omega
    the flip would cause from each label, and P_omega projects on the
    labels with that jump. Each jump gets Kraus sqrt(q min(1,
    e^{-beta omega})) sigma P_omega, and a commuting stay operator
    completes the channel. Kraus order: jumps in ascending omega, then
    the stay operator.
    """
    if H0.checks is None:
        raise NotCommuting("Hamiltonian does not carry a commuting check family")
    if flavor not in ("X", "Z"):
        raise ValueError(f"flavor must be 'X' or 'Z', got {flavor!r}")
    if not 0 < attempt_prob <= 1:
        raise ValueError(f"attempt_prob {attempt_prob} outside (0, 1]")
    fam = H0.checks
    n = fam.n
    if not 0 <= site < n:
        raise ValueError(f"site {site} outside register of {n}")
    W = label_basis(fam)
    if H0.labels is None or not H0.labels[0].same_as(W):
        raise NotDiagonal("H0 carries no syndrome energies over the label basis of its checks")
    moves, phase, omega, cls = W.kept(_move_table, fam, site, flavor)
    accept = _accept(np.maximum(omega, 0), beta, attempt_prob)
    coef = np.zeros((len(moves), W.dim), dtype=np.complex128)
    coef[cls, np.arange(W.dim)] = np.sqrt(accept)[cls] * phase
    coef[-1] = np.sqrt(1.0 - accept)[cls]
    # the table's masks are in range and make sum_m T_m^dag T_m the column sums
    chan = _trusted_channel(W, moves, coef, np.abs(coef) ** 2)
    return _checked(chan, H0.gibbs(beta)[0], f"site {site} flavor {flavor}")


def _move_table(W, fam, site, flavor):
    """The move table of a CSS flip, fixed by the family at every beta: the
    (k, 1) Kraus masks (sigma's label shift once per distinct jump, then 0
    to stay; W.index is linear in the bits, so one shift moves every label,
    else NotCommuting), the image's phases, the distinct jumps omega
    ascending, and every label's class in omega. A label's jump is the
    energy of its image less its own, label_energies(fam)[col] - E. Kept on
    W (LabelBasis.kept)."""
    bit = 1 << (fam.n - 1 - site)
    col, phase = W.pauli_image(bit, 0) if flavor == "X" else W.pauli_image(0, bit)
    shift = col ^ np.arange(W.dim)
    if (shift != shift[0]).any():
        raise NotCommuting(f"the {flavor} flip at site {site} moves the labels by no one XOR mask")
    E = label_energies(fam)
    omega, cls = np.unique(E[col] - E, return_inverse=True)
    moves = np.append(np.full(omega.size, shift[0]), 0)[:, None]
    return moves, phase, omega, cls


def sweep_schedule(H, beta, sites, flavors=None, repetitions=1, attempt_prob=DEFAULT_ATTEMPT):
    """Ordered channel list covering the sites, cycled `repetitions` times.

    Classical (diagonal) models take flavors=None and get bit-flip moves;
    CSS models get one channel per (site, flavor) pair. Every entry was
    checked against the Gibbs state of H at construction.
    """
    sites = list(sites)
    if not sites or repetitions < 1:
        raise EmptySchedule(f"{len(sites)} sites, {repetitions} repetitions")
    if flavors is None:
        built = _site_channels(H, beta, sites, attempt_prob)
    else:
        flavors = list(flavors)
        if not flavors:
            raise EmptySchedule("empty flavor list")
        built = [
            css_metropolis_channel(H, beta, s, f, attempt_prob)
            for s in sites
            for f in flavors
        ]
    return built * repetitions
