"""The paper's headline results, asserted at reduced scale.

Each test corresponds to a claim in Sections 6-7 of the paper; the
benchmark harness regenerates the full figures, these tests pin the
qualitative shapes so a regression cannot silently break the
reproduction.
"""


from repro import SystemConfig, simulate
from repro.apps import make_app
from tests.conftest import TINY_PARAMS


def run(app_name, machine, nprocs=8, topology="full", **config_overrides):
    config = SystemConfig(processors=nprocs, topology=topology,
                          **config_overrides)
    app = make_app(app_name, nprocs, **TINY_PARAMS[app_name])
    return simulate(app, machine, config)


# -- Section 6.1: the L abstraction ------------------------------------------------


def test_fig1_fft_logp_latency_about_4x():
    """8-byte items, 32-byte blocks: LogP pays ~4x the latency overhead.

    Synchronization polling adds more on top, so we assert >= 3x and
    that CLogP stays close to the target.
    """
    target = run("fft", "target").mean_latency_us
    clogp = run("fft", "clogp").mean_latency_us
    logp = run("fft", "logp").mean_latency_us
    assert logp >= 3.0 * clogp
    assert 0.5 * target <= clogp <= 2.0 * target


def test_fig3_ep_logp_latency_explodes_from_polling():
    """EP barely communicates, yet LogP's condition-variable polling
    shows up as a large latency overhead."""
    target = run("ep", "target").mean_latency_us
    logp = run("ep", "logp").mean_latency_us
    assert logp > 5.0 * max(target, 1.0)


def test_figs_1_to_5_clogp_latency_tracks_target_for_all_apps():
    for app_name in TINY_PARAMS:
        target = run(app_name, "target").mean_latency_us
        clogp = run(app_name, "clogp").mean_latency_us
        if target < 1.0:
            continue
        ratio = clogp / target
        assert 0.4 <= ratio <= 2.5, (app_name, ratio)


# -- Section 6.1: the g abstraction -----------------------------------------------------


def test_fig6_7_contention_pessimism_grows_with_lower_connectivity():
    """IS: CLogP's contention overshoot is far larger on the mesh."""
    def overshoot(topology):
        target = run("is", "target", topology=topology).mean_contention_us
        clogp = run("is", "clogp", topology=topology).mean_contention_us
        assert clogp > target  # pessimistic on both networks
        return clogp - target

    assert overshoot("mesh") > 2.0 * overshoot("full")


def test_fig10_ep_contention_disparity():
    """EP's communication locality makes bisection-derived g very wrong."""
    target = run("ep", "target", topology="mesh").mean_contention_us
    clogp = run("ep", "clogp", topology="mesh").mean_contention_us
    assert clogp > 3.0 * max(target, 0.1)


# -- Section 6.2: locality ------------------------------------------------------------------


def test_fig12_ep_execution_agrees_everywhere():
    def run_ep(machine):
        # A compute-dominated EP size (the tiny preset communicates too
        # much, relatively, to show the paper's Fig. 12 agreement).
        config = SystemConfig(processors=8, topology="full")
        app = make_app("ep", 8, pairs=16_384)
        return simulate(app, machine, config).total_us

    times = {m: run_ep(m) for m in ("target", "clogp", "logp")}
    # Computation dominates: within ~25% of each other.
    low, high = min(times.values()), max(times.values())
    assert high <= 1.25 * low, times


def test_fig14_16_logp_execution_diverges_for_comm_heavy_apps():
    for app_name in ("is", "cg", "cholesky"):
        target = run(app_name, "target").total_us
        clogp = run(app_name, "clogp").total_us
        logp = run(app_name, "logp").total_us
        assert logp > 1.5 * target, app_name
        assert clogp < logp, app_name


def test_fig17_19_mesh_amplifies_logp_divergence():
    """CG: the LogP/target execution gap grows from full to mesh."""
    gap_full = (run("cg", "logp", topology="full").total_us
                / run("cg", "target", topology="full").total_us)
    gap_mesh = (run("cg", "logp", topology="mesh").total_us
                / run("cg", "target", topology="mesh").total_us)
    assert gap_mesh > gap_full


def test_fig19_logp_mesh_contention_explodes():
    target = run("cg", "target", topology="mesh").mean_contention_us
    logp = run("cg", "logp", topology="mesh").mean_contention_us
    assert logp > 5.0 * max(target, 1.0)


# -- Section 7: speed of simulation -----------------------------------------------------------


def test_clogp_is_cheaper_to_simulate_than_target():
    """The paper's 25-30% simulation-speed win, in engine events."""
    target = run("cholesky", "target").sim_events
    clogp = run("cholesky", "clogp").sim_events
    assert clogp < 0.75 * target


def test_logp_is_more_expensive_to_simulate_than_clogp():
    """Ignoring locality turns cache hits into simulated events."""
    clogp = run("cg", "clogp").sim_events
    logp = run("cg", "logp").sim_events
    assert logp > clogp


def test_logp_moves_far_more_network_messages_than_target():
    """The mechanism behind the paper's LogP slowdown: every would-be
    cache hit becomes a simulated network message.

    Asserted at a mid-sized CHOLESKY: at the tiny test size there is too
    little reuse for the gap to open (LogP/target is ~1.9x at p=8).
    """
    config = SystemConfig(processors=16, topology="full")

    def messages(machine):
        app = make_app("cholesky", 16, n=128, density=0.10)
        return simulate(app, machine, config).messages

    assert messages("logp") > 2.0 * messages("target")


# -- Section 7: the g-gap relaxation -----------------------------------------------------------


def test_relaxed_g_reduces_clogp_contention_toward_target():
    strict = run("fft", "clogp", topology="cube").mean_contention_us
    relaxed = run("fft", "clogp", topology="cube",
                  g_per_event_type=True).mean_contention_us
    target = run("fft", "target", topology="cube").mean_contention_us
    assert relaxed < strict
    assert abs(relaxed - target) < abs(strict - target)
