"""perfbench/tracing.py wraps library functions by name; a renamed one, or a
result its after-hooks cannot read, must fail here instead of breaking
`perfbench/run.py --trace 1`."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_library():
    """Install the tracer, then run the traced covariant derivative,
    Christoffel jet and Riemann tensor on flat3 through their after-hooks."""
    code = textwrap.dedent("""
        import sys; sys.path[:0] = sys.argv[1:]
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        from hiddensym import catalog, manifold
        entry = catalog.flat(3)
        M = entry.manifold
        pts = manifold.sample_points(M.chart, 4, seed=0)
        manifold.covariant_derivative(entry.vectors["translation"], M, pts)
        M.christoffel(pts)
        M.riemann(pts)
        spans = tracer.summary()["spans"]
        for name in ("manifold.covariant_derivative", "manifold.christoffel",
                     "manifold.riemann"):
            assert spans[name]["calls"] >= 1, name
        assert len(tracer.keys["manifold.covariant_derivative"]) == 1
    """)
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"),
                           str(ROOT / "src")], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_tracer_wraps_the_spin_layer():
    """Install the tracer, then run the three spin reports on flat4 through
    the wrapped context, operator builds, compositions and applications."""
    code = textwrap.dedent("""
        import sys; sys.path[:0] = sys.argv[1:]
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        from hiddensym import catalog, manifold, spin
        M = catalog.flat(4).manifold
        ctx = spin.SpinContext(M, spin.orthonormal_frame(M))
        bank = spin.spinor_bank(M, 2, seed=0)
        Ds = spin.OperatorSpec("standard-dirac")
        f = spin.OperatorSpec("dirac-type", manifold.TensorField(
            [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], "dd"))
        k = spin.OperatorSpec("killing-op", manifold.vector([1, 0, 0, 0]))
        kw = dict(bank=bank, points=3)
        assert spin.anticommutator_residual(Ds, f, ctx, **kw).passed
        assert spin.commutator_residual(Ds, k, ctx, **kw).passed
        assert spin.square_compare(f, ctx, **kw).passed
        spans = tracer.summary()["spans"]
        for name in ("spin.context", "spin.build_operator", "spin.compose",
                     "spin.apply", "spin.report"):
            assert spans[name]["calls"] >= 1, name
    """)
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"),
                           str(ROOT / "src")], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_tracer_runs_the_staeckel_killing_square():
    """The S-K square of a form holds no component array: its check and its
    geodesic monitor run traced without handing it to a hook that reads one."""
    code = textwrap.dedent("""
        import sys; sys.path[:0] = sys.argv[1:]
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        from hiddensym import catalog, geodesic, killing, manifold
        M = catalog.flat(4).manifold
        K = killing.associated_sk(manifold.TensorField(
            [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], "dd"), M)
        assert killing.sk_residual(K, M, points=3).passed
        s0 = geodesic.GeodesicState({c: 0.1 for c in M.chart.coords},
                                    {c: 0.2 for c in M.chart.coords})
        traj = geodesic.integrate(M, s0, geodesic.IntegratorConfig(step=0.01, t_span=(0, 0.1)))
        assert geodesic.monitor_invariant(traj, K, M).passed
        spans = tracer.summary()["spans"]
        assert spans["killing"]["calls"] == 2 and spans["geodesic.monitor"]["calls"] == 1
    """)
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"),
                           str(ROOT / "src")], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
