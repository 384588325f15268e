"""Spans and counters around the public entry points of each replicaq module.

The tracer wraps library functions from outside, by rebinding module and class
attributes in the pass process; no source file is edited.  A span records
(id, name, start, end, parent id, job id).  A span's self time is its duration
minus the time covered by its child spans, so self times never overlap and
their sum is at most the traced pass's wall time.  Functions that are called
too often for a span (``QSeries.coeff``) are only counted.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict


def _bits(values) -> int:
    top = 0
    for v in values:
        if isinstance(v, int):
            b = v.bit_length() if v >= 0 else (-v).bit_length()
        else:
            b = max(abs(v.numerator).bit_length(), v.denominator.bit_length())
        if b > top:
            top = b
    return top


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.self_s: dict = defaultdict(float)
        self.job = "setup"
        self._stack: list = []
        self._calculators: list = []
        self._classify_screen = None

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Wrap fn in a span; ``name`` may be a function of the call's arguments."""
        stack, spans, self_s = self._stack, self.spans, self.self_s
        perf = time.perf_counter

        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            frame = [len(spans) + len(stack), perf(), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                own = duration - frame[2]
                self_s[label] += own
                spans.append((frame[0], label, frame[1], end, parent, self.job, own))
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_job(self, job_id: str, fn):
        self.job = job_id
        try:
            return self.wrap("bench.job", fn)()
        finally:
            self.counts["grunsky.h.computed"] += sum(len(c._memo) for c in self._calculators)
            self._calculators.clear()

    # -- counters fed by the wrappers ------------------------------------------

    def _int_conv(self, args, out):
        a, b, n_out = args
        nb = len(b)
        self.counts["qseries.int_conv.mults"] += sum(
            min(nb, n_out - i) for i, x in enumerate(a[:n_out]) if x)
        self._max_bits(out)

    def _max_bits(self, values):
        b = _bits(values)
        if b > self.counts["qseries.max_coeff_bits"]:
            self.counts["qseries.max_coeff_bits"] = b

    def _mul(self, args, out):
        if out is NotImplemented:
            return
        self.counts["qseries.mul.calls"] += 1
        self.counts["qseries.mul.out_terms"] += len(out.coeffs)
        self._max_bits(out.coeffs)

    def _product_coeffs(self, args, out):
        self.counts["frames.product_coeffs.calls"] += 1
        self.counts["frames.product_coeffs.terms"] += args[1]

    def _mult_check(self, args, out):
        screen = self._classify_screen
        if screen is None:
            return
        stage = "screen" if args[1] == screen else "recheck"
        self.counts[f"frames.{stage}.calls"] += 1
        if out is None:
            self.counts[f"frames.{stage}.passed"] += 1

    # -- installation ------------------------------------------------------------

    def install(self):
        import replicaq
        from replicaq import cli, faber, frames, functions, grunsky, hecke, qseries, replicable

        modules = [replicaq, qseries, frames, faber, grunsky, replicable, hecke, functions, cli]

        def rebind(owner, attr, new):
            old = getattr(owner, attr)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is old:
                        setattr(mod, key, new)
            for key, value in list(vars(owner).items()):
                if value is old:
                    setattr(owner, key, new)

        def span(owner, attr, name, after=None):
            rebind(owner, attr, self.wrap(name, getattr(owner, attr), after))

        QSeries = qseries.QSeries
        span(qseries, "_int_conv", "qseries.int_conv", self._int_conv)
        span(qseries, "_int_series_inverse", "qseries.int_inverse",
             lambda args, out: self._max_bits(out))
        span(QSeries, "invert", "qseries.int_inverse")
        span(qseries, "j_oracle", "qseries.j_oracle")
        span(QSeries, "__mul__", "qseries.mul", self._mul)
        coeff = QSeries.coeff
        counts = self.counts

        def counted_coeff(series, exp):
            counts["qseries.coeff.calls"] += 1
            return coeff(series, exp)

        rebind(QSeries, "coeff", counted_coeff)

        span(frames, "_product_int_coeffs", "frames.product_coeffs", self._product_coeffs)
        span(frames, "_first_mult_failure", "frames.mult_check", self._mult_check)
        span(frames, "eta_product", "frames.eta_product")
        classify = frames.classify_degree24

        def screened_classify(bound):
            self._classify_screen = min(bound, 42)
            try:
                return classify(bound)
            finally:
                self._classify_screen = None

        rebind(frames, "classify_degree24", self.wrap("frames.classify", screened_classify))
        span(frames, "weak_multiplicativity", "frames.weak_multiplicativity")
        span(frames, "euler_factor_check", "frames.euler_factor")

        span(faber, "faber_by_recursion", "faber.recursion")
        span(faber, "faber_by_elimination", "faber.elimination")
        span(faber, "faber_by_determinant", "faber.determinant")

        Calculator = grunsky.GrunskyCalculator
        init = Calculator.__init__

        def registered_init(calc, a):
            init(calc, a)
            self._calculators.append(calc)

        Calculator.__init__ = registered_init
        span(Calculator, "table", "grunsky.table")
        span(grunsky, "grunsky_from_faber", "grunsky.from_faber")
        span(grunsky, "grunsky_bivariate_check", "grunsky.bivariate")
        span(grunsky, "denominator_bound_violations", "grunsky.denominator_bound")

        span(replicable, "replicate", lambda f, k, trunc: f"replicable.replicate.k{k}")
        span(replicable, "reconstruct_from_basis", "replicable.reconstruct")
        span(replicable, "is_replicable", "replicable.is_replicable")
        span(replicable, "find_reducing_pair", "replicable.reducing_pair")

        span(hecke, "mahler_compute", "hecke.mahler_compute")
        span(hecke, "hecke_faber_verify", "hecke.hecke_faber_verify")
        for attr in ("hecke_Tn", "hecke_Tn_via_uv", "twisted_Tn"):
            span(hecke, attr, "hecke.Tn")

        span(functions, "realize", "functions.realize")
        for attr in ("j_family", "tb2_family", "fiction_family"):
            span(functions, attr, "functions.family")

        span(cli, "main", "cli")

    # -- results -------------------------------------------------------------------

    def metrics(self) -> dict:
        c, s = self.counts, self.self_s
        out = {f"{name}.self_s": s.get(name, 0.0) for name in (
            "qseries.int_conv", "qseries.int_inverse", "qseries.j_oracle", "qseries.mul",
            "frames.product_coeffs", "frames.mult_check", "frames.eta_product",
            "faber.recursion", "faber.elimination", "faber.determinant",
            "grunsky.table", "grunsky.from_faber", "grunsky.bivariate",
            "replicable.reconstruct", "replicable.is_replicable",
            "replicable.reducing_pair", "hecke.mahler_compute",
            "hecke.hecke_faber_verify", "hecke.Tn", "functions.realize", "cli")}
        per_k = {k: s.get(f"replicable.replicate.k{k}", 0.0) for k in (2, 3, 4, 6)}
        out["replicable.replicate.self_s"] = sum(
            v for name, v in s.items() if name.startswith("replicable.replicate."))
        for k, v in per_k.items():
            out[f"replicable.replicate.k{k}.self_s"] = v
        for name in ("qseries.int_conv.mults", "qseries.max_coeff_bits", "qseries.mul.calls",
                     "qseries.mul.out_terms", "qseries.coeff.calls",
                     "frames.product_coeffs.calls", "frames.product_coeffs.terms",
                     "grunsky.h.computed"):
            out[name] = c[name]
        screened = c["frames.screen.calls"]
        out["frames.screen_pass_ratio"] = c["frames.screen.passed"] / screened if screened else 0.0
        rechecked = c["frames.recheck.calls"]
        out["frames.classify_kept_ratio"] = (
            c["frames.recheck.passed"] / rechecked if rechecked else 0.0)
        out["bench.layer_self_sum_s"] = sum(
            v for name, v in s.items() if not name.startswith("bench."))
        return out

    def span_records(self) -> list:
        return [{"id": i, "name": n, "start": a, "end": b, "parent": p, "job": j, "self_s": o}
                for i, n, a, b, p, j, o in self.spans]
