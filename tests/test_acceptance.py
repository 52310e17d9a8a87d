"""Acceptance suite: ten binding checks over the whole package.

Each test prints one ``criterion NN: PASS|FAIL`` line on the real stdout
(bypassing pytest capture, so the verdicts land verbatim in piped logs) and
then enforces the check with plain asserts.  Tolerances are pinned module
constants.  The statistical reference values were computed once with
scipy.stats (``anderson``, ``ttest_rel``) on the frozen samples below and
are compared as literals; scipy is never imported here.
"""

import json
import math
import sys
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

from spanobj import cli, data, model, stats
from spanobj.decoding import (
    SpanDistribution,
    apply_filters,
    beam_decode,
    cross_boundary_check,
    independent_distribution,
    joint_distribution,
    length_filter,
    surface_form_filter,
    top_k,
    two_region_fixture,
)
from spanobj.evaluation import em_f1
from spanobj.numerics import MASK_VALID, ScoreMatrix, log_softmax
from spanobj.objectives import (
    BOUNDARY_END,
    BOUNDARY_JOINT,
    BOUNDARY_START,
    OBJ_COMPOUND,
    OBJ_CONDITIONAL,
    OBJ_INDEPENDENT,
    OBJ_JOINT,
    ConditionalParams,
    SharedNormTarget,
    SpanTarget,
    compound_loss,
    conditional_end_scores,
    independent_loss,
    joint_loss,
    shared_norm_loss,
)
from spanobj.similarity import KIND_DOT

GRAD_REL_TOL = 1e-4          # criterion 1: worst guarded relative error
GRAD_TIME_BUDGET_S = 120.0   # criterion 1: wall-clock ceiling
EXACT_TOL = 1e-12            # criteria 2, 3, 5: absolute agreement
ORACLE_TOL = 1e-6            # criterion 8: agreement with frozen references
EXPERIMENT_BUDGET_S = 1800.0  # criterion 7: wall-clock ceiling


def _say(line: str, capture) -> None:
    if capture is not None:
        with capture.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


@contextmanager
def _verdict(number: int, claim: str, capture=None):
    try:
        yield
    except BaseException:
        _say(f"criterion {number:02d}: FAIL - {claim}", capture)
        raise
    _say(f"criterion {number:02d}: PASS - {claim}", capture)


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients vs central differences, full model


def _central_difference(params, eval_loss, eps=1e-5):
    base = params.flat.copy()
    numeric = np.empty_like(base)
    for idx in range(base.size):
        vec = base.copy()
        vec[idx] = base[idx] + eps
        params.flat[:] = vec
        up = eval_loss()
        vec[idx] = base[idx] - eps
        params.flat[:] = vec
        down = eval_loss()
        numeric[idx] = (up - down) / (2.0 * eps)
    params.flat[:] = base
    return numeric


def _worst_relative_error(analytic, numeric):
    denom = np.maximum(np.abs(numeric), GRAD_REL_TOL)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_criterion_01_full_model_gradients(capsys):
    claim = "all five objectives match central-difference gradients end to end"
    with _verdict(1, claim, capsys):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        vocab_size, dim = 12, 8
        question = rng.integers(1, vocab_size, size=3)
        passage = rng.integers(1, vocab_size, size=7)
        target = SpanTarget(2, 4)

        worst = {}
        for objective in (OBJ_INDEPENDENT, OBJ_JOINT, OBJ_CONDITIONAL, OBJ_COMPOUND):
            params = model.init_params(vocab_size, dim, KIND_DOT, seed=7)
            _, grads = model.loss_and_grads(params, question, passage, target, objective)
            analytic = model.flatten_grads(params, grads)

            def eval_loss():
                cache = model.forward(params, question, passage, MASK_VALID)
                return model.example_loss(params, cache, target, objective).loss

            numeric = _central_difference(params, eval_loss)
            worst[objective] = _worst_relative_error(analytic, numeric)

        context = SimpleNamespace(
            question_ids=question,
            passages=[
                SimpleNamespace(
                    passage_ids=rng.integers(1, vocab_size, size=6),
                    gt_spans={SpanTarget(1, 2)},
                ),
                SimpleNamespace(
                    passage_ids=rng.integers(1, vocab_size, size=8),
                    gt_spans={SpanTarget(0, 0), SpanTarget(3, 4)},
                ),
            ],
        )
        params = model.init_params(vocab_size, dim, KIND_DOT, seed=8)
        _, grads = model.context_loss_and_grads(params, context)
        analytic = model.flatten_grads(params, grads)
        numeric = _central_difference(
            params, lambda: model.context_loss_and_grads(params, context)[0]
        )
        worst["shared"] = _worst_relative_error(analytic, numeric)

        elapsed = time.perf_counter() - t0
        assert elapsed < GRAD_TIME_BUDGET_S, f"gradient suite took {elapsed:.1f}s"
        for objective, err in worst.items():
            assert err < GRAD_REL_TOL, f"{objective}: relative error {err:.3e}"


# ---------------------------------------------------------------------------
# criterion 2: the compound objective is exactly joint + independent


def test_criterion_02_compound_identity(capsys):
    claim = "compound loss and gradients equal joint plus independent on 1000 instances"
    with _verdict(2, claim, capsys):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            length = int(rng.integers(2, 13))
            start_scores = 3.0 * rng.normal(size=length)
            end_scores = 3.0 * rng.normal(size=length)
            matrix = ScoreMatrix.from_values(3.0 * rng.normal(size=(length, length)))
            s = int(rng.integers(0, length))
            e = int(rng.integers(s, length))
            target = SpanTarget(s, e)

            compound = compound_loss(start_scores, end_scores, matrix, target)
            joint = joint_loss(matrix, target)
            indep = independent_loss(start_scores, end_scores, target)

            assert abs(compound.loss - (joint.loss + indep.loss)) <= EXACT_TOL
            assert np.max(np.abs(compound.grad_start - indep.grad_start)) <= EXACT_TOL
            assert np.max(np.abs(compound.grad_end - indep.grad_end)) <= EXACT_TOL
            assert np.max(np.abs(compound.grad_joint - joint.grad_joint)) <= EXACT_TOL


# ---------------------------------------------------------------------------
# criterion 3: shared normalization collapses to plain cross-entropy


def test_criterion_03_shared_normalization_collapse(capsys):
    claim = "one passage + one gold equals softmax cross-entropy; all-gold costs zero"
    with _verdict(3, claim, capsys):
        rng = np.random.default_rng(303)
        for trial in range(1000):
            length = int(rng.integers(2, 15))

            scores = 4.0 * rng.normal(size=length)
            gold = int(rng.integers(0, length))
            boundary = BOUNDARY_START if trial % 2 == 0 else BOUNDARY_END
            res = shared_norm_loss(SharedNormTarget([scores], [{gold}]), boundary)
            expected = -float(log_softmax(scores)[gold])
            assert abs(res.loss - expected) <= EXACT_TOL

            matrix = ScoreMatrix.from_values(4.0 * rng.normal(size=(length, length)))
            s = int(rng.integers(0, length))
            e = int(rng.integers(s, length))
            joint_res = shared_norm_loss(
                SharedNormTarget([matrix], [{(s, e)}]), BOUNDARY_JOINT
            )
            assert abs(joint_res.loss - joint_loss(matrix, SpanTarget(s, e)).loss) <= EXACT_TOL

        scores = 4.0 * rng.normal(size=9)
        full = shared_norm_loss(
            SharedNormTarget([scores], [set(range(9))]), BOUNDARY_START
        )
        assert full.loss == 0.0
        matrix = ScoreMatrix.from_values(4.0 * rng.normal(size=(6, 6)))
        all_spans = {(i, j) for i in range(6) for j in range(i, 6)}
        full_joint = shared_norm_loss(
            SharedNormTarget([matrix], [all_spans]), BOUNDARY_JOINT
        )
        assert full_joint.loss == 0.0


# ---------------------------------------------------------------------------
# criterion 4: decoder argmax agrees with exhaustive enumeration


def test_criterion_04_argmax_vs_enumeration(capsys):
    claim = "independent/joint/conditional argmax match brute force on 500 instances"
    with _verdict(4, claim, capsys):
        rng = np.random.default_rng(404)
        d = 4
        for _ in range(500):
            length = int(rng.integers(2, 21))
            start_scores = 2.0 * rng.normal(size=length)
            end_scores = 2.0 * rng.normal(size=length)

            # Independent: maximise P(start) * P(end) over valid spans.
            ls, le = log_softmax(start_scores), log_softmax(end_scores)
            best, best_p = None, -1.0
            for i in range(length):
                for j in range(i, length):
                    p = math.exp(ls[i] + le[j])
                    if p > best_p:
                        best, best_p = (i, j), p
            assert independent_distribution(start_scores, end_scores).top_span() == best

            # Joint: maximise the span score over valid spans.
            matrix = ScoreMatrix.from_values(2.0 * rng.normal(size=(length, length)))
            best = None
            for i in range(length):
                for j in range(i, length):
                    if best is None or matrix.values[i, j] > matrix.values[best]:
                        best = (i, j)
            assert joint_distribution(matrix).top_span() == best

            # Conditional: beam at full width is exhaustive; its best valid
            # span must match direct enumeration of P(start) * P(end|start).
            h = rng.normal(size=(d, length))
            cond = ConditionalParams(
                w=rng.normal(size=(d, 2 * d)) / math.sqrt(2 * d),
                b=rng.normal(size=d) * 0.1,
                w_out=rng.normal(size=d) / math.sqrt(d),
            )
            end_rows = [
                log_softmax(conditional_end_scores(h, i, cond)) for i in range(length)
            ]
            best, best_p = None, -1.0
            raw_all = []
            for i in range(length):
                for j in range(length):
                    p = math.exp(ls[i] + end_rows[i][j])
                    raw_all.append((i, j, p))
                    if j >= i and p > best_p:
                        best, best_p = (i, j), p
            dist = beam_decode(start_scores, h, cond, k=length)
            assert top_k(dist, 1)[0].span == SpanTarget(*best)

            # Full-width beam output equals the exhaustive candidate set.
            raw_total = math.fsum(p for _, _, p in raw_all)
            exhaustive = SpanDistribution(
                [(i, j, p / raw_total) for i, j, p in raw_all], raw_mass=raw_total
            )
            assert len(dist) == length * length
            assert abs(dist.raw_mass - exhaustive.raw_mass) <= EXACT_TOL
            for got, want in zip(dist.entries, exhaustive.entries):
                assert got[:2] == want[:2]
                assert abs(got[2] - want[2]) <= EXACT_TOL


# ---------------------------------------------------------------------------
# criterion 5: decoding filters


def _random_distribution(rng, length):
    entries = []
    raw = rng.uniform(0.1, 1.0, size=length * (length + 1) // 2)
    raw /= raw.sum()
    idx = 0
    for i in range(length):
        for j in range(i, length):
            entries.append((i, j, float(raw[idx])))
            idx += 1
    return SpanDistribution(entries, raw_mass=1.0)


def test_criterion_05_filter_contracts(capsys):
    claim = "surface filter conserves mass, length filter is exact, composition holds"
    with _verdict(5, claim, capsys):
        rng = np.random.default_rng(505)
        tokens = ["a", "b", "a", "b", "a", "c", "b", "a"]
        for _ in range(50):
            dist = _random_distribution(rng, len(tokens))
            original = {(s, e): p for s, e, p in dist.entries}

            # Surface-form pooling conserves total mass for every cutoff and
            # leaves the tail beyond the cutoff untouched.
            for k in (1, 3, 5, 10, len(dist)):
                pooled = surface_form_filter(dist, tokens, k)
                assert abs(pooled.normalization - dist.normalization) <= EXACT_TOL
                head = dist.entries[:k]
                tail = dist.entries[k:]
                pooled_by_span = {(s, e): p for s, e, p in pooled.entries}
                for s, e, p in tail:
                    assert pooled_by_span[(s, e)] == p
                by_string = {}
                for s, e, p in head:
                    text = " ".join(tokens[s : e + 1])
                    by_string.setdefault(text, []).append((s, e, p))
                for spans in by_string.values():
                    rep_s, rep_e, _ = spans[0]
                    total = math.fsum(p for _, _, p in spans)
                    assert abs(pooled_by_span[(rep_s, rep_e)] - total) <= EXACT_TOL
                    for s, e, _ in spans[1:]:
                        assert pooled_by_span[(s, e)] == 0.0

            # Length filter: zero exactly the too-long spans, change nothing else.
            for zeta in (0, 2, 5):
                trimmed = length_filter(dist, zeta)
                assert len(trimmed) == len(dist)
                for s, e, p in trimmed.entries:
                    if e - s > zeta:
                        assert p == 0.0
                    else:
                        assert p == original[(s, e)]

            # The combined pipeline is the surface filter over the length
            # filter's output, never the surface filter alone.
            combo = apply_filters(dist, tokens, "lf+sf", zeta=2, k=5)
            manual = surface_form_filter(length_filter(dist, 2), tokens, 5)
            assert combo.entries == manual.entries
            assert combo.raw_mass == manual.raw_mass
            assert all(p == 0.0 for s, e, p in combo.entries if e - s > 2)


# ---------------------------------------------------------------------------
# criterion 6: cross-boundary behaviour of the two decoders


def test_criterion_06_cross_boundary_fixtures(capsys):
    claim = "the product decoder straddles answer regions; the joint decoder never does"
    with _verdict(6, claim, capsys):
        start = np.zeros(10)
        end = np.zeros(10)
        joint_vals = np.zeros((10, 10))
        start[1], start[7] = 8.0, 7.0
        end[8], end[2] = 8.0, 7.0
        joint_vals[1, 2], joint_vals[7, 8] = 12.0, 11.0
        regions = [(1, 2), (7, 8)]
        report = cross_boundary_check(
            start, end, ScoreMatrix.from_values(joint_vals), regions
        )
        assert report.independent_span == (1, 8)
        assert report.independent_crosses
        assert report.joint_span == (1, 2)
        assert not report.joint_crosses

        rng = np.random.default_rng(606)
        joint_crossings = 0
        independent_crossings = 0
        for _ in range(100):
            start, end, matrix, regions = two_region_fixture(rng)
            rep = cross_boundary_check(start, end, matrix, regions)
            joint_crossings += int(rep.joint_crosses)
            independent_crossings += int(rep.independent_crosses)
        assert joint_crossings == 0
        assert independent_crossings == 100


# ---------------------------------------------------------------------------
# criterion 7: the compound objective beats the independent one at desk scale


def test_criterion_07_objective_comparison_experiment(tmp_path, capsys):
    claim = ("compound training lowers the cross-boundary rate and its exact-match "
             "gain is statistically significant over ten seeds")
    with _verdict(7, claim, capsys):
        t0 = time.perf_counter()
        config = data.GeneratorConfig(
            n_train=2000, n_dev=500, subjects=30, attributes=6, value_pool=40,
            ambiguous_fraction=0.3, distractors=1, mode=data.MODE_TWIN,
            passages_per_topic=4,
        )
        dataset = data.generate_synthetic(config, 11)
        vocab = data.Vocabulary.from_examples(dataset.train + dataset.dev)
        enc_train = data.encode_examples(dataset.train, vocab)
        enc_dev = data.encode_examples(dataset.dev, vocab)

        seeds = list(range(1, 11))
        ems = {}
        cross = {}
        for objective in (OBJ_INDEPENDENT, OBJ_COMPOUND):
            ems[objective], cross[objective] = [], []
            for seed in seeds:
                cfg = model.TrainConfig(
                    objective=objective, learning_rate=3e-3, weight_decay=0.01,
                    batch_size=32, epochs=8, seed=seed, policy=MASK_VALID,
                    dim=32, similarity=KIND_DOT,
                )
                result = model.train(enc_train, cfg, vocab_size=len(vocab))
                report = model.evaluate_model(result.params, enc_dev, objective)
                ems[objective].append(report.em)
                cross[objective].append(report.cross_rate)

        mean_cross_compound = float(np.mean(cross[OBJ_COMPOUND]))
        mean_cross_independent = float(np.mean(cross[OBJ_INDEPENDENT]))
        assert mean_cross_compound < mean_cross_independent, (
            f"cross rate {mean_cross_compound:.4f} !< {mean_cross_independent:.4f}"
        )

        metric_paths = []
        for objective in (OBJ_COMPOUND, OBJ_INDEPENDENT):
            path = tmp_path / f"{objective}.json"
            path.write_text(json.dumps(
                {"label": objective, "seeds": seeds, "values": ems[objective]}
            ))
            metric_paths.append(str(path))
        report_path = tmp_path / "significance.txt"
        assert cli.main([
            "stats", "--metrics", *metric_paths,
            "--comparisons", f"{OBJ_COMPOUND}>{OBJ_INDEPENDENT}",
            "--out", str(report_path),
        ]) == 0
        text = report_path.read_text()
        assert f"{OBJ_COMPOUND} > {OBJ_INDEPENDENT}" in text
        assert "significant=yes" in text
        assert f"normality[{OBJ_COMPOUND}]=normal" in text
        assert f"normality[{OBJ_INDEPENDENT}]=normal" in text

        elapsed = time.perf_counter() - t0
        assert elapsed < EXPERIMENT_BUDGET_S, f"experiment took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# criterion 8: statistical machinery vs frozen independent references


_NORMALITY_ORACLE = [
    ((0.541114, -1.754195, 1.138273, 0.274907, -0.414213, -0.748217, -1.276576, 0.641675),
     0.21683539709778543, 0.24478683500492182),
    ((4.822948, 3.760813, 1.122303, 5.246439, 1.453778, 4.826649, 3.695544, 4.411339, 5.784506, 9.491146),
     0.4392244734640727, 0.4820488596268197),
    ((-3.139806, -2.86668, -4.102868, -3.18202, -2.956189, -2.930591, -2.744574, -3.015235, -2.72141, -3.60623, -3.067675, -3.044032),
     0.8883275644191819, 0.9577281553894306),
    ((70.944907, 72.013638, 71.05974, 73.016538, 77.574074, 67.244336, 62.747971, 82.837999, 62.464661, 65.90714, 73.149493, 74.975438, 72.434976, 69.075807, 70.676026),
     0.288603680225636, 0.30591990103917416),
    ((2.31632, 16.128793, -0.790973, -14.310257, 1.48493, -5.64825, 15.272394, 6.629095, -8.974449, 7.085953, 4.450243, 28.885494, 0.14565, 8.551254, -4.625617, -11.595443, -12.771638, -14.51261, 6.466017, -0.809837),
     0.264481549032098, 0.2758873158341072),
    ((0.921779, 0.253788, 0.481158, 0.616677, 0.926644, 0.375174, 0.93251, 0.684854, 0.545034, 0.721762, 0.940608, 0.471586),
     0.39625096687565176, 0.42720807366281205),
    ((4.437489, 3.804159, 0.589991, -0.53718, 4.93815, 4.015922, 3.793791, -0.398057, -3.854609, -2.068579, 3.825503, 2.833165, 1.936976, 1.97416, -1.673415, 1.61641, -0.96921, 1.31442),
     0.36121637994430955, 0.3787755095249357),
    ((5.614698, 0.089687, 2.265962, 2.013316, 1.388445, 0.05347, 5.084181, 2.441919, 1.797909, 3.720392, 2.976119, 8.742789, 1.338064, 0.15096),
     0.5441599408057947, 0.5795581002204574),
    ((0.630875, 3.272177, 0.22669, 0.929793, 0.166576, 0.249485, 0.458293, 0.306164, 0.070378, 0.747442, 0.743854, 0.152081, 0.301968, 1.782971, 0.4, 1.106983, 0.892679, 0.395643, 0.45272, 0.708545),
     1.8262742806064374, 1.9050323589575902),
    ((0.920021, 1.924254, 1.500833, 0.10695, 0.37344, 0.437157, 0.372991, 9.981182, 5.268996, 0.797991, 2.373046, 0.603099, 1.850592, 0.918598, 1.155817, 4.013861),
     1.7384771439587468, 1.8352478443548879),
]

_PAIRED_ORACLE = [
    ((70.463953, 72.930238, 73.398657, 70.914858, 71.095366),
     (67.599729, 70.917555, 71.435369, 68.026368, 70.17665),
     5.879989746094105, 0.0020902212549608924),
    ((70.992765, 69.110606, 67.704168, 69.948952, 73.256026, 67.800566),
     (70.826869, 66.263977, 65.625796, 68.75711, 70.903849, 67.578402),
     3.2014342464184904, 0.011978378707333382),
    ((65.143317, 67.211769, 67.111538, 61.26103, 70.256631, 71.696144, 67.790905, 70.380317),
     (65.178541, 68.310058, 66.907519, 59.738092, 68.187585, 71.164928, 66.812035, 68.815577),
     1.969726814847401, 0.04476361676649267),
    ((67.811949, 70.132891, 66.551676, 68.60963, 70.056542, 69.298379, 75.327256, 67.553587, 71.948831, 69.081441),
     (65.238849, 69.185048, 66.437185, 65.914647, 70.012058, 68.841528, 78.088897, 69.649764, 66.491412, 65.721604),
     1.3625265137356715, 0.10307500461831522),
    ((68.141024, 72.344958, 69.72759, 77.401028, 73.801501, 67.218082, 69.034527, 70.736512, 69.598819, 72.229763, 71.638105, 65.178187),
     (67.894127, 73.541616, 71.809933, 77.70292, 73.208245, 66.674888, 70.46083, 69.024467, 68.329616, 73.958773, 72.59001, 64.507428),
     -0.6177684261949937, 0.7253481293485564),
    ((66.434521, 76.151166, 68.209511, 72.463921, 72.055353, 65.86762, 73.006534),
     (66.451232, 78.997171, 68.90821, 72.597756, 72.977558, 66.65759, 76.227512),
     -2.5492222202351966, 0.9782318873987929),
    ((70.353477, 70.668215, 73.61286, 69.581901, 68.370425, 67.474546, 63.89743, 67.737229, 71.686327),
     (66.510325, 67.27187, 70.576472, 65.636105, 64.157568, 63.703433, 59.513462, 64.305188, 67.254651),
     24.152766181862344, 4.604212664740389e-09),
    ((69.978115, 66.453914, 70.421032, 74.682348, 69.025256, 63.282037, 73.194059, 72.712641, 75.629962, 69.009982),
     (72.304043, 65.374678, 70.207358, 74.082291, 68.557876, 63.686076, 73.50476, 72.404361, 74.148594, 67.365072),
     0.7640421122621966, 0.23220041463370722),
    ((76.859646, 61.165217, 70.536895, 71.681918, 65.736093, 68.728456),
     (76.768385, 60.871675, 70.076652, 72.147335, 64.701932, 69.406847),
     0.47921186893906814, 0.32600638450149044),
    ((66.901103, 74.843438, 69.148881, 73.338461, 71.065502, 73.404133, 69.927864, 71.352662, 69.643173, 68.245301, 67.070326),
     (58.805654, 76.37342, 71.003476, 75.660362, 69.991014, 75.114746, 66.008986, 67.200246, 65.267913, 70.792899, 67.121973),
     0.9822506197427242, 0.17457167255250333),
]


def test_criterion_08_statistics_vs_frozen_references(capsys):
    claim = "normality and paired-test results match frozen references to 1e-6"
    with _verdict(8, claim, capsys):
        assert len(_NORMALITY_ORACLE) + len(_PAIRED_ORACLE) == 20
        assert stats.AD_CRITICAL_5PCT == 0.752
        for sample, raw_ref, adjusted_ref in _NORMALITY_ORACLE:
            res = stats.anderson_darling(np.array(sample))
            assert abs(res.statistic - raw_ref) <= ORACLE_TOL
            assert abs(res.adjusted - adjusted_ref) <= ORACLE_TOL
        for a, b, t_ref, p_ref in _PAIRED_ORACLE:
            t, p = stats.paired_t_test_one_tailed(np.array(a), np.array(b))
            assert abs(t - t_ref) <= ORACLE_TOL
            assert abs(p - p_ref) <= ORACLE_TOL


# ---------------------------------------------------------------------------
# criterion 9: answer-level metrics on hand-derived fixtures


_METRIC_FIXTURES = [
    ('Christ and His salvation"', ["Christ and His salvation"], 1, 1.0),
    ("the answer", ["the answer"], 1, 1.0),
    ("The Answer", ["answer"], 1, 1.0),
    ("va01 vb02 extra tokens", ["va01 vb02"], 0, 2.0 / 3.0),
    ("left", ["right"], 0, 0.0),
    ("U.S. Army", ["US Army"], 1, 1.0),
    ("blue car", ["blue sky"], 0, 0.5),
    ("six pence", ["half a crown", "six pence"], 1, 1.0),
    ("very good", ["very very good"], 0, 0.8),
    ("the", ["a an"], 1, 1.0),
    ("", ["something"], 0, 0.0),
    ("one", ["one two three"], 0, 0.5),
]


def test_criterion_09_metric_fixtures(capsys):
    claim = "exact-match and token-F1 agree with hand-derived values on 12 fixtures"
    with _verdict(9, claim, capsys):
        assert len(_METRIC_FIXTURES) >= 10
        for prediction, golds, em, f1 in _METRIC_FIXTURES:
            got_em, got_f1 = em_f1(prediction, golds)
            assert got_em == em, f"{prediction!r}: EM {got_em} != {em}"
            assert abs(got_f1 - f1) <= EXACT_TOL, f"{prediction!r}: F1 {got_f1} != {f1}"


# ---------------------------------------------------------------------------
# criterion 10: the whole pipeline is reproducible byte for byte


def _run_pipeline(root):
    corpus = root / "corpus"
    runs = root / "runs"
    preds = root / "preds"
    reports = root / "reports"
    metrics = root / "metrics"
    for directory in (preds, reports, metrics):
        directory.mkdir(parents=True)

    assert cli.main([
        "generate", "--out", str(corpus), "--seed", "5", "--n-train", "60",
        "--n-dev", "16", "--subjects", "6", "--attributes", "3",
        "--value-pool", "12",
    ]) == 0

    for objective in ("independent", "compound"):
        assert cli.main([
            "train", "--data", str(corpus), "--out", str(runs),
            "--objective", objective, "--seeds", "0,1", "--epochs", "2",
            "--dim", "16", "--learning-rate", "3e-3",
        ]) == 0

    for objective in ("independent", "compound"):
        values = []
        for seed in (0, 1):
            tag = f"{objective}-seed{seed}"
            assert cli.main([
                "decode", "--checkpoint", str(runs / f"{tag}.ckpt"),
                "--data", str(corpus / "dev.jsonl"),
                "--out", str(preds / f"{tag}.jsonl"), "--top-k", "5",
            ]) == 0
            assert cli.main([
                "eval", "--predictions", str(preds / f"{tag}.jsonl"),
                "--gold", str(corpus / "dev.jsonl"),
                "--out", str(reports / f"{tag}.json"),
                "--hist-out", str(reports / f"{tag}-hist.csv"), "--top-k", "5",
            ]) == 0
            values.append(json.loads((reports / f"{tag}.json").read_text())["em"])
        (metrics / f"{objective}.json").write_text(json.dumps(
            {"label": objective, "seeds": [0, 1], "values": values},
            sort_keys=True, separators=(",", ":"),
        ))

    assert cli.main([
        "context", "--data", str(corpus / "train.jsonl"),
        "--embeddings", str(corpus / "embeddings.txt"),
        "--out", str(root / "contexts.jsonl"), "--context-size", "2",
        "--seed", "9",
    ]) == 0
    assert cli.main([
        "train", "--data", str(corpus), "--out", str(runs),
        "--objective", "compound-shared", "--contexts", str(root / "contexts.jsonl"),
        "--seeds", "0", "--epochs", "1", "--dim", "16",
    ]) == 0
    assert cli.main([
        "stats", "--metrics", str(metrics / "compound.json"),
        str(metrics / "independent.json"),
        "--comparisons", "compound>independent",
        "--out", str(root / "significance.txt"),
    ]) == 0

    contents = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            contents[str(path.relative_to(root))] = path.read_bytes()
    return contents


def test_criterion_10_byte_identical_reruns(tmp_path, capsys):
    claim = "rerunning the pipeline reproduces every output file byte for byte"
    with _verdict(10, claim, capsys):
        first = _run_pipeline(tmp_path / "a")
        second = _run_pipeline(tmp_path / "b")
        assert sorted(first) == sorted(second)
        assert len(first) >= 20
        for name in first:
            assert first[name] == second[name], f"{name} differs between reruns"
