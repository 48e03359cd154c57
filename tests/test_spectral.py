import argparse
import itertools
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtriple import cli, spectral
from graphtriple.conditions import commutant_dimension
from graphtriple.algebra import (AlgebraElement, _multiply_keys, key_degree,
                                 key_source_mu, key_source_nu)
from graphtriple.graphs import Edge, GraphPresentation, GraphValidationError
from graphtriple.kgraphs import KGraphPresentation
from graphtriple.scalars import GaussianRational
from graphtriple.spectral import (MultiplicityModel, SpectralProfile,
                                  Truncation, build_truncation, ck_generators,
                                  closedness_eval, commutant_probe,
                                  first_order_check, generator_keys,
                                  kgraph_lattice_profile, reality_check_1graph,
                                  singular_profile, spin_c_generation_check,
                                  total_multiplicities, vertex_multiplicities)
from graphtriple.traces import (solve_graph_trace, solve_kgraph_trace,
                                trace_functional)

from corpus import (bi_infinite_path, one_vertex_3graph, one_vertex_kgraph,
                    single_exit_violating_2graph, single_loop, sink_path,
                    torus_2graph, tree_with_ends, two_disjoint_loops,
                    two_extension_2graph, two_vertex_2graph)
from oracles import (DecompositionError, ThetaSum,
                     _validate_projection_decomposition, commutant_oracle,
                     decompose_projection, direct_summation_oracle,
                     first_order_left_counterexample, first_order_oracle,
                     lattice_profile_oracle, level_sum_oracle,
                     mpmath_level_sum, mpmath_profile_oracle, reality_oracle,
                     semifinite_trace, to_basis_coordinates)
from test_structure import digraphs, exitless_digraphs


def torus_setup(level=2):
    g = torus_2graph()
    t = solve_kgraph_trace(g)
    return g, t, build_truncation(g, t, level)


def loop_setup(level=3):
    g = single_loop(1)
    t = solve_graph_trace(g)
    return g, t, build_truncation(g, t, level)


def tree_setup(level=3):
    g = tree_with_ends(2)
    t = solve_graph_trace(g)
    return g, t, build_truncation(g, t, level)


class TestTruncation:
    def test_loop_basis_one_vector_per_degree(self):
        _, _, tr = loop_setup(2)
        degrees = sorted(key_degree(tr.ambient, k)[0] for k in tr.basis)
        assert degrees == [-2, -1, 0, 1, 2]
        assert all(g == 1 for g in tr.gram)

    def test_basis_orthogonality(self):
        g, t, tr = tree_setup(2)
        amb = tr.ambient
        for i, k1 in enumerate(tr.basis):
            z1 = AlgebraElement(amb, {k1: GaussianRational(1)})
            for j, k2 in enumerate(tr.basis):
                z2 = AlgebraElement(amb, {k2: GaussianRational(1)})
                ip = trace_functional(t, z1.involution() * z2)
                if i == j:
                    assert ip == GaussianRational(tr.gram[i])
                else:
                    assert ip.is_zero()

    def test_torus_basis_size_matches_enumeration_oracle(self):
        g = torus_2graph()
        t = solve_kgraph_trace(g)
        tr = build_truncation(g, t, 1)
        count = 0
        box = [(a, b) for a in (0, 1) for b in (0, 1)]
        for da in box:
            for db in box:
                if max(da[0], db[0]) == 1 and max(da[1], db[1]) == 1:
                    mus = g.paths_with_degree(da, "v", "into")
                    nus = g.paths_with_degree(db, "v", "into")
                    count += len(mus) * len(nus)
        assert len(tr.basis) == count

    def test_short_generator_expands_to_basis(self):
        g, t, tr = loop_setup(2)
        amb = tr.ambient
        coords, leaked = to_basis_coordinates(
            tr, AlgebraElement.vertex(amb, "v0")
        )
        assert not leaked
        # p_v = S_ee S_ee* at the aligned depth: a single basis vector
        assert len(coords) == 1

    def test_D_degrees_and_symmetry(self):
        """tau((Dx)* y) = tau(x* Dy) exactly for every pair of basis keys,
        where D scales a basis key by its gauge degree; on the torus, for
        each colour's degree separately."""
        for _, t, tr in (loop_setup(2), tree_setup(2), torus_setup()):
            amb = tr.ambient
            basis = [AlgebraElement(amb, {key: GaussianRational(1)})
                     for key in tr.basis]
            degrees = [key_degree(amb, key) for key in tr.basis]
            for colour in range(amb.k):
                dx = [x.scale(n[colour]) for x, n in zip(basis, degrees)]
                for x, d_x in zip(basis, dx):
                    for y, d_y in zip(basis, dx):
                        assert trace_functional(t, d_x.involution() * y) == \
                            trace_functional(t, x.involution() * d_y)


class TestThetaDecompositions:
    def test_vertex_block(self):
        g, t, tr = tree_setup(2)
        theta = decompose_projection("b", 0, tr)
        assert semifinite_trace(theta, t) == GaussianRational(2)

    def test_positive_and_negative_degrees(self):
        g, t, tr = tree_setup(3)
        for k in range(-3, 4):
            theta = decompose_projection("b", k, tr)
            assert semifinite_trace(theta, t) == GaussianRational(2), k

    def test_rank_one_value(self):
        g, t, tr = tree_setup(2)
        amb = tr.ambient
        mu = amb.paths_with_degree((1,), "b", "out-of")[0]
        x = AlgebraElement.generator(amb, mu, ())
        theta = ThetaSum([(GaussianRational(1), x, x)])
        # tau~(Theta_{S_mu,S_mu}) = tau(p_{r(mu)})
        assert semifinite_trace(theta, t) == GaussianRational(
            t.vertex_value(amb.path_range(mu))
        )

    def test_validation_catches_wrong_family(self):
        g, t, tr = tree_setup(2)
        amb = tr.ambient
        x = AlgebraElement.vertex(amb, "b")
        theta = ThetaSum([(GaussianRational(2), x, x)])  # wrong coefficient
        with pytest.raises(DecompositionError):
            _validate_projection_decomposition(theta, "b", (0,), tr)

    def test_traciality_on_composed_theta_sums(self):
        g, t, tr = tree_setup(2)
        amb = tr.ambient
        one = GaussianRational(1)
        a = ThetaSum([(one, AlgebraElement.vertex(amb, "b"),
                       AlgebraElement.vertex(amb, "b"))])
        mu = amb.paths_with_degree((1,), "b", "out-of")[0]
        x = AlgebraElement.generator(amb, mu, ())
        b = ThetaSum([(one, x, x)])
        ab = a.compose(b)
        ba = b.compose(a)
        assert semifinite_trace(ab, t) == semifinite_trace(ba, t)

    def test_kgraph_decomposition(self):
        g = torus_2graph()
        t = solve_kgraph_trace(g)
        tr = build_truncation(g, t, 2)
        for deg in [(0, 0), (1, 0), (0, -1), (1, -1), (2, 1)]:
            theta = decompose_projection("v", deg, tr)
            assert semifinite_trace(theta, t) == GaussianRational(1), deg


class TestMultiplicities:
    def test_loop_all_one(self):
        g = single_loop(1)
        t = solve_graph_trace(g)
        m = vertex_multiplicities(g, t, "v0")
        assert all(m.mass(k) == 1 for k in range(-10, 11))

    def test_matches_theta_route(self):
        g, t, tr = tree_setup(3)
        m = vertex_multiplicities(g, t, "b")
        for k in range(-3, 4):
            theta = decompose_projection("b", k, tr)
            assert GaussianRational(m.mass(k)) == semifinite_trace(theta, t)

    def test_sink_cuts_forward_mass(self):
        from corpus import sink_path
        g = sink_path()
        t = solve_graph_trace(g)
        m = vertex_multiplicities(g, t, "v")
        assert m.mass(0) == 1
        assert m.mass(1) == 1  # one step lands on the sink
        assert m.mass(2) == 0

    def test_total_requires_unital(self):
        g = bi_infinite_path()
        t = solve_graph_trace(g)
        with pytest.raises(ValueError):
            total_multiplicities(g, t)


class TestProfiles:
    def test_circle_small_window_against_oracle(self):
        g = single_loop(1)
        t = solve_graph_trace(g)
        model = total_multiplicities(g, t)
        prof = singular_profile(model, 20000)
        oracle = direct_summation_oracle(model, 20000)
        assert abs(prof.diagnostics["raw_F_at_window"] - oracle) < 1e-9
        assert abs(prof.limit_estimate - 2.0) < 0.02

    def test_window_guard(self):
        g = single_loop(1)
        t = solve_graph_trace(g)
        prof = singular_profile(total_multiplicities(g, t), 50)
        assert prof.limit_estimate is None
        assert "error" in prof.diagnostics

    def test_csv_and_json_shapes(self):
        g = single_loop(1)
        t = solve_graph_trace(g)
        prof = singular_profile(total_multiplicities(g, t), 1000)
        assert prof.to_csv().startswith("t,F_T")
        doc = prof.to_json()
        assert set(doc) >= {"window", "limit", "band", "samples"}

    def test_kgraph_lattice_profile_positive(self):
        g = torus_2graph()
        t = solve_kgraph_trace(g)
        prof = kgraph_lattice_profile(g, t, window=48)
        assert prof.limit_estimate > 0

    @pytest.mark.parametrize("factory,window", [
        (torus_2graph, 48), (torus_2graph, 64), (two_vertex_2graph, 40),
        (one_vertex_3graph, 16), (one_vertex_3graph, 64),
        (lambda: one_vertex_kgraph(4), 12)],
        ids=["torus_48", "torus_64", "two_vertex_40", "3graph_16",
             "3graph_64", "4graph_12"])
    def test_kgraph_lattice_profile_matches_the_box_arrays(self, factory,
                                                           window):
        # the shell runs give the point-by-point cumulative mass exactly
        # and its integral within 1e-12 relative (measured); the fit
        # reads the tail past N/16
        g = factory()
        t = solve_kgraph_trace(g)
        prof = kgraph_lattice_profile(g, t, window=window)
        lam, cum_mass, cum_int = lattice_profile_oracle(g, t, window)
        levels = spectral._sample_levels(lam.size - 1)
        assert len(prof.f_samples) == len(levels) == 48
        for (t_val, f_val), n in zip(prof.f_samples, levels):
            assert t_val == cum_mass[n]
            assert f_val == pytest.approx(
                cum_int[n] / math.log1p(cum_mass[n]), rel=1e-9, abs=0)
        tail = [f for n, (_, f) in zip(levels, prof.f_samples)
                if n > lam.size // 16]
        assert prof.band == (min(tail), max(tail))
        assert prof.diagnostics == {"measured_constant": prof.limit_estimate}

    def test_kgraph_lattice_profile_refuses_a_box_below_the_grid(self):
        # the sample grid starts at level 8, so the box needs 9 points
        g = KGraphPresentation(1, ["v"], [Edge("e", "v", "v", 1)], [])
        t = solve_kgraph_trace(g)
        with pytest.raises(ValueError):
            kgraph_lattice_profile(g, t, window=3)
        assert kgraph_lattice_profile(g, t, window=4).f_samples[-1][0] == 9.0

    def test_zeta_residue_agrees_with_half_limit(self):
        # (s - 1/2) * sum m_k (1+k^2)^{-s} at s = 1/2 + 1/log N is within
        # 10% of half the F_T limit
        g = single_loop(1)
        t = solve_graph_trace(g)
        prof = singular_profile(total_multiplicities(g, t), 10 ** 6)
        half = prof.limit_estimate / 2.0
        assert abs(prof.zeta_residue - half) <= 0.10 * half

    def test_monotone_trend_and_three_figure_stability(self):
        # beyond a threshold the circle F_T samples decrease toward the
        # limit, and the estimate stabilizes to 3 significant figures
        # between N and 2N at N = 10^6
        g = single_loop(1)
        t = solve_graph_trace(g)
        model = total_multiplicities(g, t)
        prof1 = singular_profile(model, 10 ** 6)
        prof2 = singular_profile(model, 2 * 10 ** 6)
        tail = [f for _, f in prof1.f_samples[-12:]]
        assert all(a >= b for a, b in zip(tail, tail[1:]))
        assert all(f >= prof1.limit_estimate - 1e-6 for f in tail)
        assert round(prof1.limit_estimate, 3) == round(prof2.limit_estimate, 3)


def _rounded_ratio(k, scale):
    """k / scale rounded once to a float; past the largest float there is
    no profile to report."""
    try:
        return k / scale
    except OverflowError:
        raise GraphValidationError("the cumulative level mass exceeds"
                                   " the largest float") from None


def singular_profile_oracle(model, window, sample_count=48):
    """`singular_profile` as it was with about nine window-length arrays:
    every float array built whole and summed level by level, plus the
    finite-rank rule (limit 0.0, no fit, when the level mass ends at 0).
    The cumulative level mass is exact: a window-length list of integers
    over the common denominator, divided once at each sample.  The closed
    form must sample the same t, refuse alike and land within
    `_assert_agrees`' bounds of these floats."""
    if window < 100:
        return SpectralProfile(
            window, [], None, None, None,
            {"error": "window too small for a stable estimate"},
        )
    ks = np.arange(0, window + 1, dtype=np.float64)
    lam = 1.0 / np.sqrt(1.0 + ks * ks)

    level_mass = np.empty(window + 1, dtype=np.float64)
    head = model.forward_head
    for j in range(min(len(head), window + 1)):
        level_mass[j] = float(head[j])
    if window + 1 > len(head):
        level_mass[len(head):] = float(model.forward_tail)
    back = np.full(window + 1, float(model.vertex_mass))
    back[0] = 0.0
    d = model.backward_depth
    if d is not None:
        back[min(d, window) + 1:] = 0.0
    level_mass = level_mass + back

    idx = np.unique(
        np.clip(
            np.geomspace(8, window, num=sample_count).astype(np.int64),
            8, window,
        )
    )
    scale = math.lcm(*(m.denominator for m in
                       [*head, model.forward_tail, model.vertex_mass]))
    level_int = [int(h * scale) for h in head[:window + 1]]
    level_int += ([int(model.forward_tail * scale)]
                  * (window + 1 - len(level_int)))
    vertex_int = int(model.vertex_mass * scale)
    for j in range(1, window + 1 if d is None else min(d, window) + 1):
        level_int[j] += vertex_int
    cum_mass_int = list(itertools.accumulate(level_int))
    t_vals = np.array([_rounded_ratio(cum_mass_int[i], scale) for i in idx])

    cum_int = np.cumsum(lam * level_mass)
    with np.errstate(divide="ignore"):
        f_vals = cum_int[idx] / np.log1p(t_vals)
    samples = [(float(t), float(f)) for t, f in zip(t_vals, f_vals)]

    s = 0.5 + 1.0 / math.log(window)
    zeta = float(np.sum(level_mass * (1.0 + ks * ks) ** (-s)) * (s - 0.5))
    if model.dixmier_limit() == 0:
        return SpectralProfile(
            window, samples, 0.0, (0.0, 0.0), zeta,
            {"finite_rank": True, "raw_F_at_window": float(f_vals[-1])},
        )

    tail = idx >= max(64, window // 1024)
    x = 1.0 / np.log1p(t_vals[tail])
    y = f_vals[tail]
    coeffs = np.polyfit(x, y, 1)
    limit = float(coeffs[1])
    resid = y - np.polyval(coeffs, x)
    lim_band = (
        float(min(np.min(y), limit)),
        float(max(np.max(y), limit)),
    )

    return SpectralProfile(
        window=window,
        f_samples=samples,
        limit_estimate=limit,
        band=lim_band,
        zeta_residue=zeta,
        diagnostics={
            "fit_slope": float(coeffs[0]),
            "fit_residual_max": float(np.max(np.abs(resid))),
            "raw_F_at_window": float(f_vals[-1]),
        },
    )


def _profile_or_error(fn, model, window):
    """The profile fn reports, or the type and message of what it raised."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn(model, window)
        except Exception as exc:  # the two must raise alike
            return ("raised", type(exc).__name__, str(exc))


def _close(got, want, rel):
    """got within rel of want, relatively; nan where want is nan, and the
    same infinity where want is one."""
    if math.isnan(want) or math.isinf(want):
        return repr(got) == repr(want)
    return abs(got - want) <= rel * abs(want)


def _assert_agrees(model, window):
    """`singular_profile` against the whole-array oracle: the same refusal,
    or the same window, sampled t and report keys, with every float within
    1e-12 relative of the oracle's and the fit's slope and largest residual
    within 1e-8.  The oracle's level-by-level sum is itself off by up to
    7e-14 at window 10^6, and a residual is a difference of near values."""
    got = _profile_or_error(singular_profile, model, window)
    want = _profile_or_error(singular_profile_oracle, model, window)
    if tuple in (type(got), type(want)) or want.limit_estimate is None:
        assert got == want  # a refusal, or a window too small to sample
        return
    assert got.window == want.window
    assert [t for t, _ in got.f_samples] == [t for t, _ in want.f_samples]
    pairs = [(f, g, 1e-12) for (_, f), (_, g) in zip(got.f_samples,
                                                     want.f_samples)]
    pairs += [(got.limit_estimate, want.limit_estimate, 1e-12),
              (got.zeta_residue, want.zeta_residue, 1e-12),
              *((x, y, 1e-12) for x, y in zip(got.band, want.band))]
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for key, value in want.diagnostics.items():
        if isinstance(value, float):
            rel = 1e-8 if key.startswith("fit_") else 1e-12
            pairs.append((got.diagnostics[key], value, rel))
        else:
            assert got.diagnostics[key] == value
    assert [(g, w) for g, w, rel in pairs if not _close(g, w, rel)] == []


_MASSES_LIST = [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2),
                Fraction(5, 2), Fraction(22, 7)]
_MASSES = st.sampled_from(_MASSES_LIST)
_DYADIC = [Fraction(1, 4), Fraction(3, 8), Fraction(0), Fraction(2),
           Fraction(5, 2)]


@st.composite
def profile_cases(draw):
    window = draw(st.one_of(st.sampled_from([99, 100, 101, 128]),
                            st.integers(100, 2 * 10 ** 5)))
    head = draw(st.one_of(
        st.lists(_MASSES, max_size=12),
        st.lists(st.just(Fraction(0)), max_size=4),
        st.lists(_MASSES, min_size=95, max_size=140),
    ))
    depth = draw(st.one_of(
        st.none(), st.just(0), st.integers(1, max(1, window - 1)),
        st.integers(window, 3 * window),
    ))
    vertex_mass = draw(st.one_of(st.just(Fraction(0)), _MASSES))
    tail = draw(st.one_of(st.just(Fraction(0)), _MASSES))
    return MultiplicityModel(vertex_mass, head, tail, depth), window


class TestProfileBuffers:
    """The closed-form profile against the whole-array oracle, and the
    memory it takes."""

    @given(profile_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, case):
        _assert_agrees(*case)

    @pytest.mark.parametrize("depth", [None, 0, 7, 10 ** 6 + 5])
    def test_matches_oracle_at_window_1e6(self, depth):
        model = MultiplicityModel(
            Fraction(3, 2), [Fraction(1), Fraction(5, 2), Fraction(0)],
            Fraction(7, 3), depth)
        _assert_agrees(model, 10 ** 6)

    @pytest.mark.parametrize("model, window", [
        # the largest denominator is a power of two, another is not
        (MultiplicityModel(Fraction(1, 2), [Fraction(1, 4), Fraction(1, 3)],
                           Fraction(3, 4), None), 10 ** 5),
        # dyadic, but the window total reaches 2^53
        (MultiplicityModel(Fraction(1), [Fraction(3, 2)], Fraction(2 ** 34),
                           None), 10 ** 6),
        # integer masses whose window total is just below 2^53
        (MultiplicityModel(Fraction(1), [Fraction(3)], Fraction(2 ** 32),
                           7), 10 ** 6),
        # dyadic, a head of 65,636 levels, the backward cut past its end
        (MultiplicityModel(Fraction(3, 4),
                           [_DYADIC[j % 5] for j in range(2 ** 16 + 100)],
                           Fraction(1, 8), 3 * 2 ** 15),
         3 * 2 ** 16),
        # mass 1e308 on levels 0..5: the exact prefix passes the largest float
        (MultiplicityModel(Fraction(10 ** 308), [Fraction(10 ** 308)] * 6,
                           Fraction(0), 5), 10 ** 5),
    ], ids=["mixed-denominators", "total-over-2^53", "total-under-2^53",
            "long-dyadic-head", "prefix-past-the-largest-float"])
    def test_exactness_guard_matches_oracle(self, model, window):
        _assert_agrees(model, window)

    @pytest.mark.parametrize("model", [
        MultiplicityModel(Fraction(1, 2), [Fraction(1, 4), Fraction(1, 3)],
                          Fraction(3, 4), None),
        MultiplicityModel(Fraction(1), [Fraction(3, 2)], Fraction(2 ** 40),
                          None),
        MultiplicityModel(Fraction(1, 3), [Fraction(1, 3)] * 3,
                          Fraction(1, 3), None),
        MultiplicityModel(Fraction(22, 7), [Fraction(22, 7)] * 2,
                          Fraction(22, 7), 5),
    ], ids=["mixed-denominators", "total-over-2^53", "one-third",
            "22/7-depth-5"])
    def test_sampled_mass_is_the_exact_prefix_rounded_once(self, model):
        """A float running sum rounds on each of these models; t must not.
        Gauge level j carries mass(j) + mass(-j), level 0 mass(0) alone."""
        window = 10 ** 5
        exact = list(itertools.accumulate(
            model.mass(j) + (model.mass(-j) if j else 0)
            for j in range(window + 1)))
        idx = np.unique(np.clip(np.geomspace(8, window, num=48)
                                .astype(np.int64), 8, window))
        samples = singular_profile(model, window).f_samples
        assert [t for t, _ in samples] == [float(exact[i]) for i in idx]

    def test_cumulative_mass_past_the_largest_float_is_refused(
            self, monkeypatch):
        # every level mass has a float, but the mass summed up to the
        # window does not, so no sample t has one: refused before any sum
        model = MultiplicityModel(Fraction(1), [Fraction(1)],
                                  Fraction(10 ** 305), None)

        def refuse(*args, **kwargs):
            raise AssertionError("summed a mass with no float")
        monkeypatch.setattr(spectral, "_level_sums", refuse)
        with pytest.raises(GraphValidationError, match=(
                "^the cumulative level mass exceeds the largest float$")):
            singular_profile(model, 10 ** 6)

    @pytest.mark.parametrize("model", [
        MultiplicityModel(Fraction(10 ** 400), [Fraction(1)], Fraction(1), 3),
        MultiplicityModel(Fraction(1), [Fraction(1), Fraction(10 ** 400)],
                          Fraction(1), None),
        MultiplicityModel(Fraction(1), [Fraction(1)], Fraction(10 ** 400),
                          None),
    ], ids=["vertex", "head", "tail"])
    def test_mass_without_a_float_is_refused_before_the_walk(
            self, model, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("summed a mass with no float")
        monkeypatch.setattr(spectral, "_level_sums", refuse)
        with pytest.raises(GraphValidationError,
                           match="^a level mass exceeds the largest float$"):
            singular_profile(model, 1000)

    def test_overflow_gives_a_float_the_report_refuses(self):
        """Masses +-1.7e308 on levels 0..3: the window sums overflow, while
        the exact level mass t stays finite (0 from level 3 on).  The
        profile holds an inf or nan, which the report refuses with exit
        65, or raises GraphValidationError; never OverflowError or
        ZeroDivisionError."""
        model = MultiplicityModel(
            Fraction(0), [Fraction(17 * 10 ** 307)] * 2
            + [Fraction(-17 * 10 ** 307)] * 2, Fraction(0), 0)
        try:
            prof = singular_profile(model, 10 ** 6)
        except GraphValidationError:
            return
        floats = [f for _, f in prof.f_samples] + [prof.zeta_residue]
        assert not all(map(math.isfinite, floats))
        with pytest.raises(cli._Failure) as refused:
            cli._emit(prof, argparse.Namespace(format="json", out=None))
        assert refused.value.code == cli.EX_DATAERR

    def test_corpus_models_match_oracle(self):
        from corpus import sink_path
        for g in (single_loop(3), tree_with_ends(3), sink_path()):
            t = solve_graph_trace(g)
            for v in g.vertices:
                model = vertex_multiplicities(g, t, v)
                for window in (100, 4099):
                    _assert_agrees(model, window)

    def test_peak_memory_does_not_grow_with_the_window(self):
        g = tree_with_ends(2)
        model = vertex_multiplicities(g, solve_graph_trace(g), "b")
        peaks = []
        for window in (10 ** 5, 10 ** 12):
            singular_profile(model, window)  # warm-up: imports and caches
            tracemalloc.start()
            try:
                singular_profile(model, window)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 64 * 1024
        assert abs(peaks[0] - peaks[1]) <= 4096


class TestProfileOverflow:
    """The profile sums in pure math, so a window sum that overflows stays
    quiet under any numpy errstate and gives the oracle's profile."""

    # masses +-1.7e308 on levels 0..3: both window sums overflow, while the
    # exact level mass t stays finite (0 from level 3 on) and no fit is made
    _HUGE = MultiplicityModel(
        Fraction(0), [Fraction(17 * 10 ** 307)] * 2
        + [Fraction(-17 * 10 ** 307)] * 2, Fraction(0), 0)

    def test_overflow_is_quiet_under_errstate_ignore(self):
        model = self._HUGE
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            prof = singular_profile(model, 10 ** 6)
        assert _profile_or_error(lambda m, w: prof, model, 10 ** 6) == \
            _profile_or_error(singular_profile_oracle, model, 10 ** 6)


def _accuracy_models():
    g = tree_with_ends(3)
    trace = solve_graph_trace(g)
    models = [(v, vertex_multiplicities(g, trace, v)) for v in g.vertices]
    loop = single_loop(3)
    return models + [("single_loop_3",
                      total_multiplicities(loop, solve_graph_trace(loop)))]


class TestProfileAccuracy:
    """The closed-form sums against mpmath at 40 digits."""

    @pytest.mark.parametrize("window", [10 ** 4, 10 ** 6, 10 ** 8, 10 ** 12])
    def test_samples_and_zeta_within_1e_15(self, window):
        for name, model in _accuracy_models():
            prof = singular_profile(model, window)
            levels = spectral._sample_levels(window)
            f_exact, zeta_exact = mpmath_profile_oracle(model, window, levels)
            got = [f for _, f in prof.f_samples] + [prof.zeta_residue]
            want = f_exact + [zeta_exact]
            assert len(got) == len(want), name
            assert [(name, g, w) for g, w in zip(got, want)
                    if not _close(g, w, 1e-15)] == []

    def test_level_sums_within_1e_15(self):
        """H_s(n) at n from 2 to 10^18, and runs of 65 to 1,000 levels
        that start as far out as 10^17, at s = 1/2 and three zeta
        exponents.  The ends of one start go in one call, so the lower end
        they share is what is held to mpmath."""
        ends = [int(10 ** (e / 10)) + 1 for e in range(3, 181, 7)]
        ends.append(10 ** 18)
        for s in (0.5, *(0.5 + 1.0 / math.log(w)
                         for w in (100, 10 ** 6, 10 ** 18))):
            for n, got in zip(ends, spectral._level_sums(s, 0, ends),
                              strict=True):
                assert _close(got, mpmath_level_sum(s, 0, n), 1e-15), (s, n)
            for a in (16, 17, 100, 10 ** 6, 10 ** 12, 10 ** 17):
                runs = [a + length for length in (65, 66, 1000)]
                for b, got in zip(runs, spectral._level_sums(s, a, runs),
                                  strict=True):
                    assert _close(got, mpmath_level_sum(s, a, b),
                                  1e-15), (s, a, b)


@st.composite
def level_sum_cases(draw):
    s = draw(st.sampled_from([0.5, *(0.5 + 1.0 / math.log(10 ** e)
                                     for e in range(2, 19))])
             | st.floats(0.5, 1.0, exclude_min=True))
    a = draw(st.integers(0, 40) | st.integers(0, 10 ** 17))
    ends = draw(st.lists(st.integers(a, a + 64) | st.integers(a, 10 ** 18),
                         min_size=1, max_size=8))
    return s, a, ends


class TestLevelSums:
    """`_level_sums` takes each run's lower end and the Euler-Maclaurin
    weights once, with the same floats as one end at a time."""

    @given(level_sum_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_one_end_at_a_time(self, case):
        s, a, ends = case
        assert spectral._level_sums(s, a, ends) == [
            level_sum_oracle(s, a, b) for b in ends]

    def test_lower_end_taken_once_per_run(self, monkeypatch):
        """8 edge terms per end more than _SHORT_RUN past its run's start,
        plus 8 for the lower end of each such run; the lower end, its sum
        below _K0 included, is taken beside the 8 weight lists of the run.
        A stop at its run's end is that end, so no end is passed twice."""
        calls = {"_edge_terms": 0, "_em_weights": 0}
        for name in calls:
            def counted(*args, _f=getattr(spectral, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(spectral, name, counted)
        passed = []

        def level_sums(s, a, ends, _f=spectral._level_sums):
            passed.append(list(ends))
            return _f(s, a, ends)
        monkeypatch.setattr(spectral, "_level_sums", level_sums)
        g = tree_with_ends(3)
        trace = solve_graph_trace(g)
        window = 10 ** 6
        levels = spectral._sample_levels(window)
        for v in g.vertices:
            model = vertex_multiplicities(g, trace, v)
            long_ends = long_runs = 0
            for stops in ([n + 1 for n in levels], [window + 1]):
                for a, b, _, _ in spectral._mass_runs(model, window):
                    ends = sorted({n for n in stops if a < n <= b} | {b})
                    long = [n for n in ends if n - a > spectral._SHORT_RUN]
                    long_ends += len(long)
                    long_runs += bool(long)
            calls.update(dict.fromkeys(calls, 0))
            passed.clear()
            singular_profile(model, window)
            assert calls == {"_edge_terms": 8 * (long_ends + long_runs),
                             "_em_weights": 8 * long_runs}, v
            assert calls["_edge_terms"] <= 336, v
            assert passed and all(len(set(e)) == len(e) for e in passed), v


class TestSampleLevels:
    """`_sample_levels` builds in Python the levels that
    np.unique(np.geomspace(8, window, 48).astype(np.int64)) gives."""

    @staticmethod
    def numpy_levels(windows):
        """np.geomspace over many windows at once; row i is the scalar
        call's result at windows[i] (checked on a subsample below)."""
        grid = np.geomspace(8, np.array(windows, dtype=np.float64), num=48,
                            axis=1).astype(np.int64)
        return [sorted(set(row)) for row in grid.tolist()]

    def test_vectorised_numpy_is_the_scalar_call(self):
        windows = [*range(100, 10 ** 5 + 1, 997), 10 ** 6, 10 ** 12]
        assert self.numpy_levels(windows) == [
            np.unique(np.geomspace(8, w, num=48).astype(np.int64)).tolist()
            for w in windows]

    def test_equal_to_numpy_up_to_1e5_and_at_1e6(self):
        windows = [*range(100, 10 ** 5 + 1), 10 ** 6]
        for window, want in zip(windows, self.numpy_levels(windows)):
            assert spectral._sample_levels(window) == want, window

    def test_at_most_one_level_off_numpy_up_to_1e12(self):
        rng = random.Random(0)
        windows = sorted({int(10 ** rng.uniform(6, 12)) for _ in range(2000)})
        for window, want in zip(windows, self.numpy_levels(windows)):
            got = spectral._sample_levels(window)
            assert len(got) == len(want), window
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1, window
            assert got[-1] == window


class TestClosedness:
    def test_gauge_route_zero(self):
        g, t, tr = tree_setup(2)
        amb = tr.ambient
        rng = random.Random(7)
        keys = generator_keys(amb, 2)
        for _ in range(50):
            key = rng.choice(keys)
            a = AlgebraElement(amb, {key: GaussianRational(1)})
            res = closedness_eval(g, t, [a])
            assert res["route"] == "gauge" and res["is_zero"]

    def test_determinant_route(self):
        g = torus_2graph()
        t = solve_kgraph_trace(g)
        a1 = AlgebraElement.generator(g, ("e",), ("f",))  # degree (1,-1)
        a2 = AlgebraElement.generator(g, ("f",), ("e",))  # degree (-1,1)
        res = closedness_eval(g, t, [a1, a2])
        assert res["route"] == "determinant"
        assert res["det"] == 0  # columns sum to zero
        assert res["columns_sum_zero"]
        assert res["is_zero"]

    def test_trace_factor_kills_nonzero_det(self):
        g = torus_2graph()
        t = solve_kgraph_trace(g)
        a1 = AlgebraElement.generator(g, ("e",), ())  # degree (1,0)
        a2 = AlgebraElement.generator(g, ("f",), ())  # degree (0,1)
        res = closedness_eval(g, t, [a1, a2])
        assert res["det"] == 1
        assert res["trace_factor"].is_zero()
        assert res["is_zero"]


class TestFirstOrderAndFriends:
    @pytest.mark.parametrize("setup", [loop_setup, tree_setup])
    def test_first_order(self, setup):
        _, _, tr = setup(3)
        assert first_order_check(tr)["pass"]

    def test_first_order_torus(self):
        g = torus_2graph()
        t = solve_kgraph_trace(g)
        tr = build_truncation(g, t, 2)
        assert first_order_check(tr)["pass"]

    @staticmethod
    def _corrupt_product(amb, ka, kz, wrong):
        """Make a.z return `wrong` by seeding the ambient's product memo;
        every other product stays exact."""
        _multiply_keys(amb, ka, kz)  # makes sure the memo exists
        amb._product_cache[ka, kz] = tuple(wrong)

    def test_first_order_fails_on_corrupted_single_key_product(self):
        _, _, tr = loop_setup(2)
        amb = tr.ambient
        ka = kb = (("e0",), (), "v0")
        kz = (("e0", "e0"), (), "v0")
        assert kz in tr.basis and first_order_check(tr)["pass"]
        # a.z = S_e^3 reported as S_e^2: a(zb) = S_e^4 but (az)b = S_e^3
        self._corrupt_product(amb, ka, kz, [kz])
        result = first_order_check(tr)
        assert not result["pass"]
        for kind in ("[a,b_op]", "[[D,a],b_op]"):
            assert {"kind": kind, "a": ka, "b": kb, "z": kz} in result["failures"]

    def test_first_order_fails_on_corrupted_multi_term_product(self):
        amb = two_extension_2graph()
        ka = ((), ("e1",), "v")
        kz = (("f1",), (), "v")
        kb = (("e2",), (), "v")
        tr = Truncation(amb, None, 1)
        tr.basis, tr.gram = (((), (), "v"), kz), (1, 1)
        assert first_order_check(tr)["pass"]
        # S_e1* S_f1 = S_f1 S_e1* + S_f2 S_e2*; pair the extensions wrongly
        assert len(_multiply_keys(amb, ka, kz)) == 2
        self._corrupt_product(amb, ka, kz, [
            (("f1",), ("e2",), "v"), (("f2",), ("e1",), "v")])
        result = first_order_check(tr)
        assert not result["pass"]
        assert {"kind": "[a,b_op]", "a": ka, "b": kb, "z": kz} in result["failures"]

    @pytest.mark.parametrize("setup", [loop_setup, tree_setup, torus_setup])
    def test_first_order_matches_triple_loop_oracle(self, setup):
        _, _, tr = setup()
        result = first_order_check(tr)
        assert result == first_order_oracle(tr, ck_generators(tr.ambient))
        degree_box = first_order_oracle(tr, generator_keys(tr.ambient, 1))
        assert result["pass"] == degree_box["pass"]

    def test_index_reaches_triples_with_zero_products(self):
        # S_e2* . S_e1 S_nu* is zero because e1 != e2, though both edges
        # leave b: a and z share the bucket rs(a) = ls(z) = b, so a nonzero
        # a.z there must still reach the comparison
        _, _, tr = tree_setup(2)
        amb = tr.ambient
        ka = ((), ("e2",), "c2")
        kz = (("e1",), ("b~se1", "e1"), "c1")
        assert kz in tr.basis and _multiply_keys(amb, ka, kz) == ()
        assert key_source_nu(amb, ka) == key_source_mu(amb, kz) == "b"
        self._corrupt_product(amb, ka, kz, [kz])
        result = first_order_check(tr)
        assert ka in ck_generators(amb)
        assert result == first_order_oracle(tr, ck_generators(amb))
        assert not result["pass"]
        # S_e2* has degree -1, so each failure shows in both commutators
        plain = [f for f in result["failures"] if f["kind"] == "[a,b_op]"]
        assert result["failures"] == [
            dict(f, kind=kind) for f in plain
            for kind in ("[a,b_op]", "[[D,a],b_op]")]
        assert {(f["a"], f["z"]) for f in result["failures"]} == {(ka, kz)}

    def test_reality_fails_on_corrupted_product(self):
        _, _, tr = loop_setup(2)
        amb = tr.ambient
        ka = (("e0",), (), "v0")
        kz = (("e0", "e0"), (), "v0")
        assert kz in tr.basis and reality_check_1graph(tr)["pass"]
        # z.a = S_e^3 reported as S_e^2, while (a* z*)* stays S_e^3
        self._corrupt_product(amb, kz, ka, [kz])
        result = reality_check_1graph(tr)
        assert not result["pass"]
        assert result["failures"] == [{"kind": "Ja*J=a_op", "a": ka, "z": kz}]

    # (factory, level): the seeded mutants below corrupt products of these
    MUTANT_CASES = {
        "single_loop_3": (lambda: single_loop(3), 1),
        "two_disjoint_loops": (two_disjoint_loops, 2),
        "sink_path": (sink_path, 2),
        "bi_infinite_path": (bi_infinite_path, 2),
        "torus_2graph": (torus_2graph, 1),
        "two_vertex_2graph": (two_vertex_2graph, 1),
        "single_exit_violating_2graph": (single_exit_violating_2graph, 1),
    }

    @pytest.mark.parametrize("name", sorted(MUTANT_CASES))
    def test_sampled_generator_products_flip_both_checks(self, name):
        """Double a sampled nonzero product a.z, a in {p_v, S_e, S_e*} and z
        a basis vector: first order fails, both over the Cuntz-Krieger
        generators and over the degree-box keys, and each check equals its
        plain loop.  On a 1-graph reality fails the same way, unless z =
        a*: then both sides of J a* J z = z a read the doubled entry."""
        factory, level = self.MUTANT_CASES[name]
        g = factory()
        if isinstance(g, GraphPresentation):
            tr = build_truncation(g, solve_graph_trace(g), level)
        else:
            tr = build_truncation(g, solve_kgraph_trace(g), level)
        amb = tr.ambient
        g0, box = ck_generators(amb), generator_keys(amb, 1)
        pairs = [(ka, kz) for ka in g0 for kz in tr.basis
                 if _multiply_keys(amb, ka, kz)]
        memo = amb._product_cache
        assert first_order_check(tr)["pass"]
        for ka, kz in random.Random(13).sample(pairs, min(6, len(pairs))):
            entry = ka, kz
            exact = memo[entry]
            memo[entry] = exact + exact
            result = first_order_check(tr)
            assert not result["pass"], (ka, kz)
            assert result == first_order_oracle(tr, g0)
            assert not first_order_oracle(tr, box)["pass"]
            if amb.k == 1 and kz != spectral._swap(ka):
                reality = reality_check_1graph(tr)
                assert not reality["pass"], (ka, kz)
                assert reality == reality_oracle(tr, g0)
                assert not reality_oracle(tr, box)["pass"]
            memo[entry] = exact
        assert first_order_check(tr)["pass"]

    def test_left_action_counterexample_on_tree(self):
        _, _, tr = tree_setup(2)
        witness = first_order_left_counterexample(tr)
        assert witness is not None

    def test_reality(self):
        for setup in (loop_setup, tree_setup):
            _, _, tr = setup(2)
            assert reality_check_1graph(tr)["pass"]

    def test_spin_c_k1(self):
        _, _, tr = tree_setup(2)
        rep = spin_c_generation_check(tr)
        assert rep["pass"] and rep["mode"] == "commutators-in-algebra"

    def test_spin_c_k2(self):
        g = torus_2graph()
        t = solve_kgraph_trace(g)
        tr = build_truncation(g, t, 1)
        rep = spin_c_generation_check(tr)
        assert rep["pass"] and rep["dimension"] == 4


@st.composite
def abelian_kgraphs(draw):
    """Single-exit k-graphs, k = 2 or 3, on up to 4 vertices: the colour c
    edge out of v runs to maps[c](v) for pairwise commuting permutations,
    drawn one by one from the centraliser of those before.  Every vertex
    receives one edge of each colour, so a faithful trace exists."""
    k = draw(st.integers(2, 3))
    n = draw(st.integers(1, 4))
    maps = []
    for _ in range(k):
        maps.append(draw(st.sampled_from([
            p for p in itertools.permutations(range(n))
            if all(p[q[i]] == q[p[i]] for q in maps for i in range(n))])))
    verts = [f"v{i}" for i in range(n)]
    edges = [Edge(f"e{c}{i}", verts[i], verts[m[i]], c + 1)
             for c, m in enumerate(maps) for i in range(n)]
    squares = [((f"e{c}{i}", f"e{d}{maps[c][i]}"),
                (f"e{d}{i}", f"e{c}{maps[d][i]}"))
               for c in range(k) for d in range(c + 1, k) for i in range(n)]
    return KGraphPresentation(k, verts, edges, squares)


class TestTheoremsOnRandomInputs:
    """First order and 1-graph reality are identities of A_c, so their
    checks pass on every input with a faithful trace; the seeded mutants
    above show that the same loops can fail."""

    @given(exitless_digraphs(), st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_first_order_and_reality_hold_on_exitless_digraphs(
            self, g, level):
        tr = build_truncation(g, solve_graph_trace(g), level)
        assert first_order_check(tr)["pass"]
        assert reality_check_1graph(tr)["pass"]

    @given(abelian_kgraphs(), st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_first_order_holds_on_abelian_kgraphs(self, g, level):
        # a 3-graph stays at level 1: at level 2 it has 125 basis keys a
        # vertex
        tr = build_truncation(g, solve_kgraph_trace(g), min(level, 4 - g.k))
        assert first_order_check(tr)["pass"]


class _UnitTrace:
    """tau(p_v) = 1 on every vertex.  The basis and the commutant probe read
    no trace value, so presentations with no faithful trace serve too."""

    def vertex_value(self, v):
        return Fraction(1)


@st.composite
def truncations(draw):
    """Truncations of any digraph with tails and source tails at levels
    1-3, and of abelian 2- and 3-graphs at levels 1-2."""
    if draw(st.booleans()):
        g, level = draw(digraphs()), draw(st.integers(1, 3))
    else:
        g, level = draw(abelian_kgraphs()), draw(st.integers(1, 2))
    return build_truncation(g, _UnitTrace(), level)


@st.composite
def sourced_digraphs(draw):
    """A `digraphs` presentation on up to 4 vertices with one more vertex
    s, a source with no source tail, joined by one or two edges into it."""
    g = draw(digraphs(max_vertices=4))
    targets = draw(st.lists(st.sampled_from(g.vertices), min_size=1,
                            max_size=2))
    edges = [*g.edges.values(),
             *(Edge(f"s{i}", "s", v) for i, v in enumerate(targets))]
    return GraphPresentation([*g.vertices, "s"], edges, g.tails,
                             g.source_tails)


class TestCommutant:
    @given(truncations())
    @settings(max_examples=60, deadline=None)
    def test_basis_is_nonempty(self, tr):
        # build_truncation refuses only an empty ambient as degenerate
        assert tr.basis

    @given(truncations())
    @settings(max_examples=60, deadline=None)
    def test_probe_matches_its_oracle(self, tr):
        assert commutant_probe(tr) == commutant_oracle(tr)

    @given(truncations())
    @settings(max_examples=60, deadline=None)
    def test_count_matches_the_probe(self, tr):
        # a 1-graph's ambient is its expansion, a k-graph its own ambient
        g = getattr(tr.ambient, "presentation", tr.ambient)
        assert commutant_dimension(g, tr.level) == \
            commutant_probe(tr)["dimension_interior"]

    @given(sourced_digraphs(), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_count_matches_the_probe_with_bare_sources(self, g, level):
        # a source without a source tail receives no path, so how deep the
        # candidates reach decides which terminals it identifies
        tr = build_truncation(g, _UnitTrace(), level)
        assert commutant_dimension(g, level) == \
            commutant_probe(tr)["dimension_interior"]

    @given(truncations())
    @settings(max_examples=60, deadline=None)
    def test_candidates_are_the_diagonal_generators(self, tr):
        keys = generator_keys(tr.ambient, max(tr.level - 1, 1))
        diag = tr.diagonal_candidates
        assert diag == [key for key in keys if key[0] == key[1]]

    def test_loop_scalars(self):
        _, _, tr = loop_setup(3)
        assert commutant_probe(tr)["dimension_interior"] == 1

    def test_disconnected_two_loops(self):
        g = two_disjoint_loops()
        t = solve_graph_trace(g)
        tr = build_truncation(g, t, 3)
        assert commutant_probe(tr)["dimension_interior"] == 2

    def test_two_end_tree_scalars(self):
        _, _, tr = tree_setup(2)
        assert commutant_probe(tr)["dimension_interior"] == 1

    def test_torus_scalars(self):
        g = torus_2graph()
        t = solve_kgraph_trace(g)
        tr = build_truncation(g, t, 2)
        assert commutant_probe(tr)["dimension_interior"] == 1

    @pytest.mark.parametrize("setup", [tree_setup, torus_setup])
    def test_aligned_commutator_matches_element_route(self, setup):
        _, _, tr = setup(2)
        amb = tr.ambient
        diag = [key for key in generator_keys(amb, 1) if key[0] == key[1]]
        for eid in amb.edge_order:
            s_e = AlgebraElement.generator(amb, (eid,), ())
            for g in (s_e, s_e.involution()):
                (kg,) = g.terms
                for kf in diag:
                    f = AlgebraElement(amb, {kf: GaussianRational(1)})
                    want = {k: c.re for k, c in
                            (f * g - g * f).aligned_terms().items()}
                    assert spectral._aligned_commutator(amb, kf, kg) == want

class TestStarRepresentation:
    def test_adjoint_identity_on_basis(self):
        g, t, tr = tree_setup(2)
        amb = tr.ambient
        gens = generator_keys(amb, 1)[:8]
        for ka in gens:
            a = AlgebraElement(amb, {ka: GaussianRational(1)})
            for kx in tr.basis[:10]:
                x = AlgebraElement(amb, {kx: GaussianRational(1)})
                for ky in tr.basis[:10]:
                    y = AlgebraElement(amb, {ky: GaussianRational(1)})
                    lhs = trace_functional(t, x.involution() * (a * y))
                    rhs = trace_functional(
                        t, (a.involution() * x).involution() * y
                    )
                    assert lhs == rhs
