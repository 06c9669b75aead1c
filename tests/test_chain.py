import hashlib
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinturnstile.algebra import evolve_unitary, pauli_coordinates
from spinturnstile.config import parse_config
from spinturnstile.cycle import MeasurementSetting, setting_instrument, transfer_matrices
from spinturnstile.experiment import RUN_BLOCK, ShotRecord, _pulse_bound, _run_stacks, propagate_cycles
from spinturnstile.model import SpinModelParams, build_total_hamiltonian

from oracles import (
    check_density_matrix,
    induced_instrument,
    kraus_chain,
    kraus_instrument,
    random_density,
    random_hermitian,
    stepwise_chain,
)

U_LEFT, U_RIGHT = [0, 0, 1.0], [1.0, 0, 0]


def make_hamiltonian(exchange=3e5):
    p = SpinModelParams(
        b_field=(0, 0, 1e-4), g_nuclear=1.2e-3, g_ancilla=2.0,
        exchange=exchange, hyperfine_ancilla=1e5,
    )
    return build_total_hamiltonian(p)


def make_instrument(exchange=3e5, t=4e-6, kappa_c=0.9):
    return induced_instrument(U_LEFT, U_RIGHT, make_hamiltonian(exchange), t, kappa_c, 1e-10, 1e9)


def maps(block):
    """The (pulse, nopulse) transfer matrices of a one-row instrument block."""
    pulse, nopulse, _ = transfer_matrices(block)
    return pulse[0], nopulse[0]


def default_probes(c, u_left="z"):
    """Gate state and instruments of the default sweep's three probes at
    detection constant c, with the left lead along the axis u_left."""
    cfg = parse_config({"detection": {"c": c}, "leads": {"u_left": {"direction": u_left}}})
    grid = cfg.sweep_settings
    return cfg.gate_state.density(), [
        setting_instrument(MeasurementSetting(*row), cfg.model, cfg.tunnel, c, cfg.include_gate_hamiltonian)
        for row in zip(grid.u_left, grid.u_right, grid.t_interact)
    ]


def assert_matches_stepwise(pulse, nopulse, rho0, n, seed):
    """The chain equals the per-cycle transfer-matrix rule on the same uniforms."""
    rec = propagate_cycles(pulse, nopulse, rho0, n, seed=seed)
    outcomes, probs, rho_final, resets = stepwise_chain(pulse, nopulse, rho0,
                                                        np.random.default_rng(seed).random(n))
    assert np.array_equal(rec.outcomes, outcomes)
    assert rec.shots.n_pulses == int(outcomes.sum())
    assert np.abs(rec.probs - probs).max() < 1e-12
    assert np.abs(rec.rho_final - rho_final).max() < 1e-10
    assert rec.resets == resets
    return rec


class TestPropagateCycles:
    def test_final_state_valid(self):
        rng = np.random.default_rng(40)
        rec = propagate_cycles(*maps(make_instrument()), random_density(rng, 4), 500, seed=1)
        assert rec.outcomes.shape == (500,)
        assert np.all((rec.probs >= 0) & (rec.probs <= 1))
        check_density_matrix(rec.rho_final, tol=1e-9)

    def test_deterministic_given_uniforms(self):
        inst = make_instrument()
        rho0 = random_density(np.random.default_rng(42), 4)
        a = propagate_cycles(*maps(inst), rho0, 300, seed=2)
        b = propagate_cycles(*maps(inst), rho0, 300, seed=2)
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.rho_final, b.rho_final)

    def test_first_cycle_probability_matches_instrument(self):
        inst = make_instrument()
        rho0 = random_density(np.random.default_rng(43), 4)
        rec = propagate_cycles(*maps(inst), rho0, 5, seed=3)
        assert rec.probs[0] == pytest.approx(inst.pulse_probabilities(rho0)[0], abs=1e-12)

    def test_uninformative_instrument_keeps_state_fixed(self):
        # with no interaction the conditional maps leave the gate untouched
        inst = make_instrument(exchange=0.0, t=0.0)
        rho0 = random_density(np.random.default_rng(44), 4)
        rec = propagate_cycles(*maps(inst), rho0, 200, seed=4)
        assert np.allclose(rec.rho_final, rho0, atol=1e-10)
        assert np.allclose(rec.probs, rec.probs[0], atol=1e-12)

    def test_matches_kraus_chain(self):
        # outcome for outcome on the same uniforms against plain Kraus sums
        h, t, c = make_hamiltonian(), 4e-6, 1.0
        inst = induced_instrument(U_LEFT, U_RIGHT, h, t, c, 1e-10, 1e9)
        kraus_pulse, kraus_nopulse = kraus_instrument(U_LEFT, U_RIGHT, evolve_unitary(h, t), inst.kappa)
        rho0 = np.eye(4) / 4
        n, seed = 3000, 5
        rec = propagate_cycles(*maps(inst), rho0, n, seed=seed)
        outcomes, probs, rho_final = kraus_chain(
            kraus_pulse, kraus_nopulse, rho0, np.random.default_rng(seed).random(n))
        assert 0 < rec.shots.n_pulses < n
        assert np.array_equal(rec.outcomes, outcomes)
        assert np.abs(rec.probs - probs).max() < 1e-12
        assert np.abs(rec.rho_final - rho_final).max() < 1e-10


class TestRunLengthSampler:
    @pytest.mark.parametrize("c", [1.0, 0.05, 0.01])
    def test_default_probes_match_stepwise(self, c):
        rho0, instruments = default_probes(c)
        for k, inst in enumerate(instruments):
            rec = assert_matches_stepwise(*maps(inst), rho0, 10_000, seed=k + 1)
            assert 0 < rec.shots.n_pulses < 10_000
            assert rec.resets == 0

    def test_long_low_probability_row(self):
        rho0, instruments = default_probes(0.01)
        rec = assert_matches_stepwise(*maps(instruments[2]), rho0, 200_000, seed=17)
        assert rec.shots.pr_hat < 0.01

    @pytest.mark.parametrize("n", [1, 2, RUN_BLOCK - 1, RUN_BLOCK, RUN_BLOCK + 1, 3 * RUN_BLOCK + 5])
    @pytest.mark.parametrize("c", [1.0, 0.01])
    def test_short_and_partial_blocks(self, n, c):
        # at c = 0.01 most chains end inside a pulse-free stretch, so the
        # final state comes from a window cut short at the chain's end
        rho0, instruments = default_probes(c)
        for seed in range(8):
            for inst in instruments:
                assert_matches_stepwise(*maps(inst), rho0, n, seed)

    def test_rescaled_state_matches_stepwise(self):
        # The chain carries its state unnormalized, and the state's first
        # entry shrinks by the probability of each branch taken. Over 2e4
        # cycles at c = 1 their product is below 2**-1100, past the smallest
        # double, so the chain can only match by rescaling on the way.
        rho0, instruments = default_probes(1.0)
        for k, inst in enumerate(instruments):
            rec = assert_matches_stepwise(*maps(inst), rho0, 20_000, seed=k + 1)
            taken = np.where(rec.outcomes == 1, rec.probs, 1.0 - rec.probs)
            assert np.log2(taken).sum() < -1100

    @pytest.mark.parametrize("n", [RUN_BLOCK, RUN_BLOCK + 1])
    def test_pulse_after_pulse_checked_alone(self, n):
        # at c = 5 the z/z probe (the last) pulses almost every cycle, so
        # nearly every cycle, the last one included, is decided alone at the
        # start of the window that follows a pulse
        rho0, instruments = default_probes(5.0)
        for seed in range(8):
            for inst in instruments:
                rec = assert_matches_stepwise(*maps(inst), rho0, n, seed)
            assert rec.outcomes[-2:].all()

    def test_event_maps_within_budget(self):
        inst = make_instrument()
        after_jump, after_run = _run_stacks(*maps(inst), RUN_BLOCK)
        assert after_jump.shape == after_run.shape == (RUN_BLOCK + 1, 16 + 2 * (RUN_BLOCK + 1), 16)
        assert after_jump.nbytes + after_run.nbytes <= 0.75e6

    def test_pulse_dense_chain_raises_no_warning(self):
        # kappa = 1: after a no-pulse cycle the z/z probe pulses surely, so
        # the no-pulse survival two cycles on is zero
        rho0, instruments = default_probes(5.0)
        assert instruments[2].kappa == pytest.approx(1.0)
        n = 10_000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k, inst in enumerate(instruments):
                rec = propagate_cycles(*maps(inst), rho0, n, seed=k + 1)
                outcomes, _, _, _ = stepwise_chain(*maps(inst), rho0, np.random.default_rng(k + 1).random(n))
                assert np.array_equal(rec.outcomes, outcomes)
        assert rec.shots.n_pulses > 0.999 * n

    def test_underflowing_survival(self):
        # the no-pulse image shrinks by 1e-200 per cycle, so survivals of a
        # window underflow; the per-cycle rule renormalizes every cycle
        rho0 = random_density(np.random.default_rng(60), 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = assert_matches_stepwise(0.3 * np.eye(16), 1e-200 * np.eye(16), rho0, 3 * RUN_BLOCK + 5,
                                          seed=6)
        assert 0 < rec.shots.n_pulses < rec.shots.n_cycles

    @pytest.mark.parametrize("scale", [-0.1, 1.25])
    def test_probabilities_clamped_in_record_only(self, scale):
        # a pulse probability below 0 never fires and one above 1 always does
        pulse, nopulse = scale * np.eye(16), 0.5 * np.eye(16)
        rec = propagate_cycles(pulse, nopulse, np.eye(4) / 4, 3 * RUN_BLOCK + 5, seed=9)
        outcomes, probs, _, _ = stepwise_chain(pulse, nopulse, np.eye(4) / 4,
                                               np.random.default_rng(9).random(rec.shots.n_cycles))
        assert np.array_equal(rec.outcomes, outcomes)
        assert np.array_equal(rec.probs, probs)
        assert rec.shots.n_pulses == (rec.shots.n_cycles if scale > 1 else 0)

    @pytest.mark.parametrize("scale", [-0.1, 1.25])
    def test_unnormalized_state_stays_in_range(self, scale):
        # the state is carried unnormalized: over 5000 cycles it would shrink
        # by 0.8**5000 (no pulse ever, in whole windows) or grow by 1.25**5000
        # (a pulse map that adds trace), past either end of the float range,
        # unless rescaled; the per-cycle oracle renormalizes every cycle
        pulse, nopulse = scale * np.eye(16), 0.8 * np.eye(16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = propagate_cycles(pulse, nopulse, np.eye(4) / 4, 5_000, seed=9)
            outcomes, probs, _, _ = stepwise_chain(pulse, nopulse, np.eye(4) / 4,
                                                   np.random.default_rng(9).random(rec.shots.n_cycles))
        assert np.array_equal(rec.outcomes, outcomes)
        assert np.array_equal(rec.probs, probs)
        assert rec.shots.n_pulses == (rec.shots.n_cycles if scale > 1 else 0)
        assert np.all(rec.probs == (1.0 if scale > 1 else 0.0))
        assert np.abs(rec.rho_final - np.eye(4) / 4).max() < 1e-12

    @staticmethod
    def resetting_maps():
        # Pr = 1/2 always; a no-pulse cycle from the mixed state leaves ZI = -1,
        # whose no-pulse image has a zero first entry, so every second
        # no-pulse cycle resets the state to maximally mixed
        nopulse = 0.5 * np.eye(16)
        nopulse[0, 3] = 0.5
        nopulse[3, 0] = nopulse[3, 3] = -0.5
        return 0.5 * np.eye(16), nopulse

    def test_resets_counted(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = assert_matches_stepwise(*self.resetting_maps(), np.eye(4) / 4, 2_000, seed=8)
        assert 0.2 * rec.shots.n_cycles < rec.resets < 0.4 * rec.shots.n_cycles
        assert np.all(rec.probs == 0.5)
        check_density_matrix(rec.rho_final, tol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reset_on_the_last_cycle(self, n):
        # a short chain's one window reaches its end: the state after it has
        # survival 0 when its last two cycles give no pulse, so the last
        # cycle is stepped alone and resets
        resets = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(16):
                rec = assert_matches_stepwise(*self.resetting_maps(), np.eye(4) / 4, n, seed)
                resets += rec.resets
                check_density_matrix(rec.rho_final, tol=1e-12)
        assert resets > 0


# Chain outcomes pinned bit for bit, one case per (c, n): the SHA-256 of the
# outcomes bytes of the default sweep's three probes with seeds 1-3 each
# (probe by probe, seed by seed) and their nine pulse counts. The lengths lie
# on both sides of a whole window and of a window cut short at the chain's end.
# At c = 0.05 and 0.001 pulses are rare and nearly every cycle passes
# undecided inside a pulse-free window. probs and rho_final are left to the
# stepwise checks above: their last bits follow the BLAS build.
PINNED_CHAINS = {
    (0.001, RUN_BLOCK + 1): ("d99258f5d81067df4e95825381104fe6c90d04d01bdd2915954dd06f75d07c10",
                             (0, 0, 0, 0, 0, 0, 0, 0, 0)),
    (0.001, 10_000): ("4a207f87e209d803e47a8a4aa594ea4deff9265ac64ec202466785000fddeebb",
                      (1, 2, 3, 1, 2, 3, 4, 2, 4)),
    (0.01, 1): ("3e7077fd2f66d689e0cee6a7cf5b37bf2dca7c979af356d0a31cbc5c85605c7d",
                (0, 0, 0, 0, 0, 0, 0, 0, 0)),
    (0.01, RUN_BLOCK - 1): ("778893c945e9695c6ff83a08ba05d61083a0b006bd5eaa3ee7cf51d454143b06",
                            (0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (0.01, RUN_BLOCK): ("527fe9d0afeb3c0387d6ab387436dfaeb3c2638520a7fef7daed3d1121fabf59",
                        (0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (0.01, RUN_BLOCK + 1): ("2c0f479169a49b0a30868cb4acf25cdb0e39de8cd95ff8e9d2261bb6274f6717",
                            (0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (0.01, 2 * RUN_BLOCK): ("d8e6940effe572a25d6db9b0639f3b1b692c1fcf58a60d6585905c55b086510f",
                            (0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (0.01, 2 * RUN_BLOCK + 1): ("04e0fc1309808d896f14d9fdf97dbf113cea2a1f339183d956af222713840ce0",
                                (0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (0.01, 10_000): ("f4cb3abe941ea948925af19e788370adad6012b70f1372279a415d50d9e8227b",
                     (10, 10, 13, 10, 10, 13, 14, 23, 26)),
    (0.05, RUN_BLOCK + 1): ("e1cc96ff2fdd14921694ad33c4aeb3f7eb7638243f32b253a9df3aeb6a46b6e4",
                            (0, 0, 1, 0, 0, 1, 0, 0, 1)),
    (0.05, 10_000): ("e4a247291cffdd6ef0a861e5afedc447bdd6403fa274467f44b54c7cedbdc6a0",
                     (47, 60, 59, 47, 60, 59, 98, 111, 103)),
    (1.0, 1): ("f6b531e31b875e4ca8a2dad0f3624f68cb783b04956d5a888ea4c7ef9fbaa510",
               (0, 0, 1, 0, 0, 1, 0, 0, 1)),
    (1.0, RUN_BLOCK - 1): ("b37bf95f72da5023d5b8f1dac5a49f87fc1cb4d772b8094840d286c1fa0dee49",
                           (1, 2, 4, 1, 2, 4, 4, 7, 6)),
    (1.0, RUN_BLOCK): ("b669e4b9331759dfad45c1cb304ea2b5c0b5ba20a4a6ef6d3b27a3488610265e",
                       (1, 2, 5, 1, 2, 5, 5, 7, 7)),
    (1.0, RUN_BLOCK + 1): ("3d538f7f5f0c2cd6f73ca67d31d550c4f31e400f4fb4573fb04b029e810c5046",
                           (1, 2, 5, 1, 2, 5, 5, 7, 7)),
    (1.0, 2 * RUN_BLOCK): ("7785cd242af76405c573f03e8e4dee2c7a8dcb3fc7e883b06ce968b36ecfb688",
                           (5, 3, 5, 5, 3, 5, 12, 13, 11)),
    (1.0, 2 * RUN_BLOCK + 1): ("c4bba99af807beb3f505ad5e391be98496f6fad97a836ec792ada069e9a7dc72",
                               (5, 4, 5, 5, 4, 5, 12, 14, 11)),
    (1.0, 10_000): ("b998a6909f6f4c856724894a6a2b649d0e7e50770d85fbf1b2e7270304d35116",
                    (1013, 1022, 1090, 1013, 1022, 1090, 1999, 2026, 2047)),
    (5.0, 1): ("cbf31821485d5ce93254f6c70ef26c2c326bda0066448e31eefa3dcc35fa6def",
               (0, 1, 1, 0, 1, 1, 1, 1, 1)),
    (5.0, RUN_BLOCK - 1): ("b32de4f19a68ed1135319853119f47a528f0e87f4363db0790082524262e47e6",
                           (16, 17, 17, 16, 17, 17, 30, 31, 31)),
    (5.0, RUN_BLOCK): ("a21deb57724091ff4e923540da40a48218ff3ce22fe55e6b4b0cf0270b467485",
                       (17, 17, 18, 17, 17, 18, 31, 32, 32)),
    (5.0, RUN_BLOCK + 1): ("6b475f4219420117505accf03f2977a79f1e9fb6ed7854d33fd05657924d2980",
                           (17, 17, 18, 17, 17, 18, 32, 33, 33)),
    (5.0, 2 * RUN_BLOCK): ("8f57652e880aa48f8f8c82de943f76d726e6c1f5767d730bfe0c798466bb42c6",
                           (28, 31, 31, 28, 31, 31, 63, 64, 64)),
    (5.0, 2 * RUN_BLOCK + 1): ("0bb122a9177ed325164804de171f00d846a6e9432df54c76c828d9db5b40555e",
                               (28, 32, 31, 28, 32, 31, 64, 65, 65)),
    (5.0, 10_000): ("604a5ce8d339a727a6bac13116fb58e5011f29cb0c7c9fd2f1ca30e31f550add",
                    (4951, 5028, 5032, 4951, 5028, 5032, 9999, 9999, 9999)),
}


def pinned_digest(rho0, instruments, n):
    """The SHA-256 of the outcomes of each instrument's chains from rho0 with
    seeds 1-3, and their pulse counts; each count-only chain's record equals
    its full record's."""
    outcomes, n_pulses = hashlib.sha256(), []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for inst in instruments:
            for seed in (1, 2, 3):
                rec = propagate_cycles(*maps(inst), rho0, n, seed)
                assert propagate_cycles(*maps(inst), rho0, n, seed, count_only=True) == rec.shots
                assert rec.resets == 0
                outcomes.update(rec.outcomes.tobytes())
                n_pulses.append(rec.shots.n_pulses)
    return outcomes.hexdigest(), tuple(n_pulses)


@pytest.mark.parametrize("c, n", sorted(PINNED_CHAINS))
def test_chain_counts_pinned(c, n):
    digest, counts = PINNED_CHAINS[c, n]
    rho0, instruments = default_probes(c)
    assert pinned_digest(rho0, instruments, n) == (digest, counts)


# Dense pulse trains pinned the same way, one case per (c, left-lead axis, n):
# at c = 2 and 5 (kappa = 0.4 and 1) pulses come every few cycles, so most
# cycles follow a pulse closely. With u_left along z the z/z probe's survival
# falls below the floor two cycles after a no-pulse cycle at c = 5; with
# u_left along x every probe pulses at rates that swing with the gate's
# precession. The c = 5 z-lead cases of n = RUN_BLOCK - 1 and RUN_BLOCK + 1
# are in PINNED_CHAINS.
PINNED_DENSE_CHAINS = {
    (2.0, "z", RUN_BLOCK - 1): ("84f49c4392e7e98cb63a5797c7d8b0e27ea99b0ff168c4d5a2bd3868e28f6fc8",
                                (4, 7, 6, 4, 7, 6, 11, 14, 13)),
    (2.0, "z", RUN_BLOCK + 1): ("b83c765adaa7e103f1fc37a4e4eb3eac2e3c103a97b238638515aa89d43f61ae",
                                (5, 7, 7, 5, 7, 7, 12, 14, 14)),
    (2.0, "z", 1000): ("d35e8e9cbf6a9c3f54b2e1f0ae4e1069704f7091ba001d98eb8e918233ae7ea6",
                       (187, 198, 207, 187, 198, 207, 415, 396, 405)),
    (2.0, "x", RUN_BLOCK - 1): ("58f2f63845932b54b2f033fb0e155fa70319cab927f4467c2b3ea560e6311e2d",
                                (8, 11, 11, 8, 9, 11, 4, 7, 6)),
    (2.0, "x", RUN_BLOCK + 1): ("cdfc4832720c040336fa0d76ef4b43e5f7cca0071b6d160d647924ce41b35827",
                                (9, 11, 12, 9, 9, 12, 5, 7, 7)),
    (2.0, "x", 1000): ("a993a6114c10f9f85eb49ae77c2f612bbac90863e2f6d01d60135e7aafe36013",
                       (314, 325, 321, 296, 296, 291, 192, 201, 209)),
    (5.0, "z", 1000): ("477c3a161bb9dd8380c36205ca5837087b737c121485966251722031624bfc4d",
                       (505, 502, 500, 505, 502, 500, 999, 999, 999)),
    (5.0, "x", RUN_BLOCK - 1): ("d9f66e9504c89826a688efe13c19b9ec74c05e01dd9993264dbdfe6dae112455",
                                (23, 30, 27, 24, 30, 28, 17, 18, 17)),
    (5.0, "x", RUN_BLOCK + 1): ("480fcca35d33b9280123d26254b716abff82e5d25662cf06e758492ee86b404f",
                                (25, 32, 29, 26, 32, 30, 18, 18, 18)),
    (5.0, "x", 1000): ("361596799ef6ebab699d2891a56c6f488ed76ebb95deaa69ce2ab6238988398c",
                       (747, 862, 847, 798, 833, 878, 502, 492, 503)),
}


@pytest.mark.parametrize("c, u_left, n", sorted(PINNED_DENSE_CHAINS))
def test_dense_chain_counts_pinned(c, u_left, n):
    digest, counts = PINNED_DENSE_CHAINS[c, u_left, n]
    rho0, instruments = default_probes(c, u_left)
    assert pinned_digest(rho0, instruments, n) == (digest, counts)


def test_edge_gate_state_chain_pinned():
    # config accepts a gate state whose smallest eigenvalue is -1e-10: here
    # the electron polarized along z a little beyond pure, the nucleus mixed
    cfg = parse_config({"gate_state": {"theta_single_spin": [0.0, 0.0, 1.0000000003999998]}})
    rho0 = cfg.gate_state.density()
    assert np.linalg.eigvalsh(rho0).min() == pytest.approx(-1e-10, rel=1e-5)
    _, instruments = default_probes(1.0)
    assert pinned_digest(rho0, instruments, 10_000) == (
        "341959f6b4d3ed9caffe52ee49c7a5be318eb7b595d0ffae7715df5caff7dedf",
        (1012, 1023, 1090, 1012, 1023, 1090, 1999, 2026, 2047))


unit_vectors = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(
    lambda v: np.linalg.norm(v) > 1e-3).map(lambda v: np.array(v) / np.linalg.norm(v))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(u_left=unit_vectors, u_right=unit_vectors, h_seed=st.integers(0, 2**32 - 1),
       t=st.floats(0.0, 5.0), c=st.floats(1.0, 5.0), n=st.integers(1, 4 * RUN_BLOCK),
       seed=st.integers(0, 2**32 - 1))
def test_dense_chain_matches_stepwise(u_left, u_right, h_seed, t, c, n, seed):
    # kappa = 2 c tau_detect t_sq = 0.2 c lies in [0.2, 1]: pulses every few
    # cycles, often several in a row, and survivals that can reach the floor
    # within a few cycles
    h = random_hermitian(np.random.default_rng(h_seed), 8)
    inst = induced_instrument(u_left, u_right, h, t, c, 0.1, 1.0)
    rho0 = random_density(np.random.default_rng(seed), 4)
    rec = assert_matches_stepwise(*maps(inst), rho0, n, seed)
    assert propagate_cycles(*maps(inst), rho0, n, seed, count_only=True) == rec.shots



# A fixed pool of leads: drawing float leads lets a failing example shrink for
# minutes.
LEADS = [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.6, 0.0, 0.8), (0.0, -0.8, 0.6),
         (3 ** -0.5, 3 ** -0.5, 3 ** -0.5)]


def gate_state(kind, seed):
    """A gate state along a random pure state: the mixture of weight ``kind``
    with the maximally mixed state, a full-rank Wishart state ("wishart"), or
    a state beyond the pure one whose smallest eigenvalue is ``-e`` ("edge":
    -1e-10, at config's tolerance)."""
    rng = np.random.default_rng(seed)
    if kind == "wishart":
        return random_density(rng, 4)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    proj = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    if kind == "edge":
        return beyond_pure(proj, 1e-10)
    return (1.0 - kind) * np.eye(4) / 4 + kind * proj


def beyond_pure(proj, e):
    """The unit-trace state ``(1 + 3e) proj - e (I - proj)``, of smallest
    eigenvalue ``-e``."""
    return (1.0 + 3.0 * e) * proj - e * (np.eye(4) - proj)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(u_left=st.sampled_from(LEADS), u_right=st.sampled_from(LEADS), h_seed=st.integers(0, 2**32 - 1),
       t=st.floats(0.0, 5.0), c=st.floats(0.001, 5.0), n=st.integers(1, 4 * RUN_BLOCK),
       kind=st.sampled_from([0.0, 0.3, 0.9, 1.0, "wishart", "edge"]), seed=st.integers(0, 2**32 - 1))
@example(u_left=LEADS[0], u_right=LEADS[1], h_seed=1, t=1.0, c=0.001, n=100_000, kind=1.0, seed=1)
@example(u_left=LEADS[3], u_right=LEADS[4], h_seed=2, t=2.5, c=0.005, n=100_000, kind="wishart", seed=2)
@example(u_left=LEADS[5], u_right=LEADS[0], h_seed=3, t=4.0, c=0.01, n=100_000, kind="edge", seed=3)
def test_bounded_chain_matches_stepwise(u_left, u_right, h_seed, t, c, n, kind, seed):
    # kappa = 2 c tau_detect t_sq = 0.2 c lies in [2e-4, 1]: from a pulse in
    # tens of thousands of cycles to pulse trains; only the cycles whose
    # uniform lies below the bound are decided
    h = random_hermitian(np.random.default_rng(h_seed), 8)
    pulse, nopulse = maps(induced_instrument(u_left, u_right, h, t, c, 0.1, 1.0))
    rho0 = gate_state(kind, seed)
    rec = assert_matches_stepwise(pulse, nopulse, rho0, n, seed)
    assert propagate_cycles(pulse, nopulse, rho0, n, seed, count_only=True) == rec.shots
    bound = _pulse_bound(pulse, pauli_coordinates(rho0))
    if bound < 1.0:
        assert rec.probs.max() <= bound


def test_state_beyond_the_margin_decides_every_cycle():
    # a negative eigenvalue of -1e-5 is past the bound's margin: the bound is
    # infinite and the chain still equals the per-cycle rule
    rho0, instruments = default_probes(0.05)
    proj = np.zeros((4, 4))
    proj[0, 0] = 1.0
    rho_edge = beyond_pure(proj, 1e-5)
    for k, inst in enumerate(instruments):
        assert _pulse_bound(maps(inst)[0], pauli_coordinates(rho_edge)) == np.inf
        assert _pulse_bound(maps(inst)[0], pauli_coordinates(rho0)) < 1.0
        assert_matches_stepwise(*maps(inst), rho_edge, 3_000, seed=k + 1)


@pytest.mark.parametrize("count_only", [False, True])
@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_gate_state_not_finite_raises(entry, count_only):
    # a state with an entry that is not finite is refused before any cycle
    # runs; an all-NaN state used to count as maximally mixed (on the x
    # probe at c = 1, n = 100, seed 1: 8 pulses and one reset)
    rho0, instruments = default_probes(1.0)
    one_entry = rho0.astype(complex)
    one_entry[0, 1] = entry
    for rho in (np.full((4, 4), entry), one_entry):
        for inst in instruments:
            with pytest.raises(ValueError, match="rho_gate must be finite"):
                propagate_cycles(*maps(inst), rho, 100, seed=1, count_only=count_only)


def traced_peak(call):
    """The peak of memory newly traced by tracemalloc while ``call()`` runs."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


class TestEventMapBuffers:
    def test_threads_reproduce_sequential_records(self):
        # each thread builds its chains' event maps in its own buffer; a
        # shared one would be rebuilt under a running chain, here with another
        # instrument and, at n < RUN_BLOCK, another layout
        rho0, instruments = default_probes(1.0)
        jobs = [(maps(instruments[k % 2]), (5_000, RUN_BLOCK - 5)[k % 2], k) for k in range(4)]

        def chains(job):
            (pulse, nopulse), n, seed = job
            return [propagate_cycles(pulse, nopulse, rho0, n, seed + 10 * r) for r in range(8)]

        expected = [chains(job) for job in jobs]
        results = [None] * len(jobs)
        start = threading.Barrier(len(jobs))

        def worker(k):
            start.wait(timeout=60)
            results[k] = chains(jobs[k])

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, expected):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shots == b.shots and a.resets == b.resets
                assert a.outcomes.tobytes() == b.outcomes.tobytes()
                assert a.probs.tobytes() == b.probs.tobytes()
                assert a.rho_final.tobytes() == b.rho_final.tobytes()

    def test_second_chain_allocates_no_event_maps(self):
        rho0, instruments = default_probes(1.0)
        propagate_cycles(*maps(instruments[0]), rho0, 100, seed=1)
        pulse, nopulse = maps(instruments[1])
        new, (after_jump, after_run) = traced_peak(lambda: _run_stacks(pulse, nopulse, RUN_BLOCK))
        assert after_jump.nbytes + after_run.nbytes > 0.6e6
        assert new < 64 * 1024

    @staticmethod
    def z_probe_chain(c, n, **kwargs):
        """The peak of new memory of an n-cycle chain of the z probe at c, and
        its result; the thread's event maps exist before."""
        rho0, instruments = default_probes(c)
        pulse, nopulse = maps(instruments[2])
        propagate_cycles(pulse, nopulse, rho0, 10, seed=1)
        return traced_peak(lambda: propagate_cycles(pulse, nopulse, rho0, n, seed=2, **kwargs))

    @pytest.mark.parametrize("c, n", [(0.01, 1_000_000), (5.0, 100_000)])
    def test_count_holds_the_uniforms_alone(self, c, n):
        # 8n bytes of uniforms; at c = 5 nearly every cycle pulses, so an
        # object kept per cycle or per pulse would show
        peak, shots = self.z_probe_chain(c, n, count_only=True)
        assert type(shots) is ShotRecord and shots.n_cycles == n
        assert peak < 8 * n + 1e6

    def test_index_of_cycles_to_decide_holds_one_chunk(self):
        # the z probe's bound at c = 5 is at least 1, so every cycle is
        # decided: an index of them that grew with n would show here
        rho0, instruments = default_probes(5.0)
        assert _pulse_bound(maps(instruments[2])[0], pauli_coordinates(rho0)) >= 1.0
        above = [self.z_probe_chain(5.0, n, count_only=True)[0] - 8 * n for n in (100_000, 400_000)]
        assert abs(above[1] - above[0]) < 64 * 1024

    def test_full_record_holds_its_arrays_alone(self):
        # the uniforms and probabilities (8n bytes each) and outcomes (n)
        n = 100_000
        peak, chain = self.z_probe_chain(5.0, n)
        assert chain.shots.n_pulses > 0.99 * n
        assert peak < 3 * 8 * n + 1e6
