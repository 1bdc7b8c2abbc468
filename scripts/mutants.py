"""Replay the mutation checks: each listed mutant must make its tests fail.

A mutant names a file of the repository, an exact snippet of it, the
snippet's replacement, and the test node ids that must fail once the
replacement is made.  The script copies the source tree (``src``,
``tests``, ``scripts``, ``perfbench``, ``README.md`` and ``pyproject.toml``)
into a temporary directory, runs every mutant's tests there on the copy as
it is, where they must pass, and then, one mutant at a time, applies the
replacement, runs its tests and restores the file.  A mutant is

- killed when one of its tests fails,
- survived when they all pass,
- stale when its snippet is not found exactly once in its file.

A survived or stale mutant, or a run that errs, fails the script (exit 1).
Nothing is written in the working tree: tests run in the copy, without
bytecode files and without pytest's cache.

Run from anywhere:

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "perfbench", "README.md", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple


MUTANTS = (
    # a composite's own initial law read from its factors' vectors, with the
    # outer product transposed, so each weight lands on another state
    Mutant(
        "pair-init-transposed",
        "src/polydyn/hier.py",
        "np.multiply.outer(left.law(left.system), right.law(right.system)).ravel()",
        "np.multiply.outer(left.law(left.system), right.law(right.system)).T.ravel()",
        ("tests/test_table_properties.py::test_generated_traces_equal_the_closure_traces",
         "tests/test_table_counts.py::test_a_composites_initial_law_looks_up_no_composite_state"),
    ),
    # a composite's own initial law, formed when first read, as the product
    # of its factors' laws taken right factor first
    Mutant(
        "deferred-init-swapped",
        "src/polydyn/hier.py",
        'object.__setattr__(hs, "init", dst(hs.factors[1].init, hs.factors[2].init))',
        'object.__setattr__(hs, "init", dst(hs.factors[2].init, hs.factors[1].init))',
        ("tests/test_table_properties.py::test_a_composites_init_is_dst_of_its_factors_formed_once",),
    ),
    # a composite's unformed initial law never compared with the uniform
    # law, so a product of uniform laws leaves the uniform candidate too
    Mutant(
        "uniform-kept-unweighed",
        "src/polydyn/hier.py",
        "isinstance(e, (Categorical, HierSystem)) and len(ws := _weights(e)) == n",
        "type(e) is Categorical and len(ws := _weights(e)) == n",
        ("tests/test_table_counts.py::test_the_trusted_candidates_are_the_checked_ones",
         "tests/test_table_properties.py::test_a_composites_candidates_are_those_of_its_formed_init"),
    ),
    # a tensor key's backward atoms joined g's slots first, so each product
    # atom's slots are out of the product fibre's order
    Mutant(
        "tensor-key-atoms-swapped",
        "src/polydyn/poly.py",
        "(a1 + a2, w)",
        "(a2 + a1, w)",
        ("tests/test_tables.py::test_arities_pass_through_pair_tables",
         "tests/test_tables.py::test_tensor_keys_with_tabulated_fibres_equal_the_walk"),
    ),
    # a leaf's memo of absorbed laws keyed by the law's type, not its
    # identity, so every law of a type reads the row of the first one mapped
    Mutant(
        "absorb-memo-by-type",
        "src/polydyn/hier.py",
        "        law = self.system.absorb(self._states[s], i, d)\n",
        "        law = self.system.absorb(self._states[s], i, d)\n"
        "        law = self._law_rows.setdefault(type(law), (law, None))[0]\n",
        ("tests/test_table_properties.py::test_generated_table_keys_and_rows_equal_the_closures",
         "tests/test_tables.py::test_table_keys_and_rows_equal_the_closures"),
    ),
    # a lens key listing a backward law's atoms in the order the law lists
    # them, not in its source fibre's order
    Mutant(
        "key-without-fibre-order",
        "src/polydyn/poly.py",
        "            items.sort()\n",
        "",
        ("tests/test_poly.py::test_polymap_key_ignores_listing_order_and_fibre_association",
         "tests/test_tables.py::test_one_law_listed_in_either_order_has_one_key"),
    ),
    # mk_hier accepts an emitted lens of any shape
    Mutant(
        "mk-hier-no-shape-check",
        "src/polydyn/hier.py",
        "if phi.source != source or phi.target != target:",
        "if False:",
        ("tests/test_hier.py::test_mk_hier_validates_emitted_shape",),
    ),
    # a forall side b read as exists: a side-a candidate holds once some
    # side-b candidate matches it
    Mutant(
        "forall-read-as-exists",
        "src/polydyn/hier.py",
        'holds = ok.any(axis=1) if beta_mode == "exists" else ok.all(axis=1)',
        "holds = ok.any(axis=1)",
        ("tests/test_hier.py::test_quantifier_modes_differ",),
    ),
    # reading stops after one tick whatever the laws, as if every law matrix
    # repeated its last one
    Mutant(
        "stop-after-one-tick",
        "src/polydyn/hier.py",
        "if new.tobytes() == law.tobytes():",
        "if new.tobytes() == new.tobytes():",
        ("tests/test_tables.py::test_a_leaf_that_settles_late_equals_the_closure_walk",
         "tests/test_tables.py::test_a_mismatch_after_one_side_settles_keeps_its_tick",
         "tests/test_tables.py::test_a_swap_that_never_settles_advances_every_tick"),
    ),
    # a trace whose laws repeat ends at its last distinct tick, short of the
    # horizon
    Mutant(
        "trace-unpadded",
        "src/polydyn/hier.py",
        "    values += values[-1:] * (horizon + 1 - len(values))  # the laws repeat from here on\n",
        "",
        ("tests/test_tables.py::test_a_settling_trace_has_a_value_per_tick",),
    ),
    # the walk keys an atom of a law that is not a state of the system
    Mutant(
        "walk-state-unchecked",
        "src/polydyn/hier.py",
        "            if not contains(sys_.states, x):\n"
        '                raise HierError(f"{x!r} is not a state of the system")\n',
        "",
        ("tests/test_hier.py::test_each_trace_refusal_fires_by_name",
         "tests/test_hier.py::test_a_law_off_the_states_is_refused_by_name"),
    ),
    # the walk takes a section's response without asking whether the lens
    # offers it
    Mutant(
        "walk-response-unchecked",
        "src/polydyn/hier.py",
        "            if response not in _options(key):\n"
        '                raise HierError("section offers a response the emitted lens lacks")\n',
        "",
        ("tests/test_hier.py::test_each_trace_refusal_fires_by_name",
         "tests/test_hier.py::test_a_section_offering_a_response_the_lens_lacks_is_refused"),
    ),
    # the walk stops once a tick's law equals the initial law, not the law of
    # the tick before, so a law that returns to its start stands still there
    Mutant(
        "walk-stop-compares-init",
        "src/polydyn/hier.py",
        "            if new == law:\n",
        "            if new == init:\n",
        ("tests/test_tables.py::test_a_swap_that_never_settles_advances_every_tick",),
    ),
    # a Laplace run stops after its first step whatever the means, as if every
    # level's new mean were its old one
    Mutant(
        "run-stop-after-one-step",
        "src/polydyn/laplace.py",
        "first = seen.setdefault(b\"\".join(at.x.tobytes() for at in new_points), step)",
        "first = step - 1",
        ("tests/test_laplace.py::test_a_run_that_settles_gives_the_rows_of_a_runner_that_steps_every_level",
         "tests/test_laplace.py::test_a_run_steps_until_every_level_has_settled"),
    ),
    # a Laplace run stops once its bottom level repeats a mean, whatever the
    # levels above it do
    Mutant(
        "run-stop-on-one-level",
        "src/polydyn/laplace.py",
        "first = seen.setdefault(b\"\".join(at.x.tobytes() for at in new_points), step)",
        "first = seen.setdefault(new_points[0].x.tobytes(), step)",
        ("tests/test_laplace.py::test_a_run_steps_until_every_level_has_settled",),
    ),
    # a Laplace run that repeats a state fills the steps left from the
    # cycle's rows one step on, so a cycle longer than one step is misplaced
    Mutant(
        "repeat-fill-off-by-one",
        "src/polydyn/laplace.py",
        "i = (later - step - 1) % period * depth",
        "i = (later - step) % period * depth",
        ("tests/test_laplace.py::test_a_run_that_enters_a_cycle_fills_its_steps_from_the_cycle",),
    ),
    # a level takes its central differences at every new mean, never
    # reading the one it kept for the mean's grid cell
    Mutant(
        "jacobian-cell-ignored",
        "src/polydyn/laplace.py",
        "                if kept != cell:\n",
        "                if True:\n",
        ("tests/test_laplace.py::test_run_stack_evaluates_a_channel_once_per_point",),
    ),
    # a level keeps its central differences by grid cell but takes them at
    # the mean that first entered the cell, so a Jacobian depends on the
    # path that reached the cell
    Mutant(
        "jacobian-at-raw-x",
        "src/polydyn/laplace.py",
        "                    x = np.array([round(v / _R) * _R for v in xs])\n"
        "                prior, cell = self.prior, x.tobytes()\n",
        "                    pass\n"
        "                prior = self.prior\n"
        "                cell = np.array([round(v / _R) * _R for v in xs]).tobytes()\n",
        ("tests/test_laplace.py::"
         "test_shared_nonlinear_paths_that_revisit_grid_cells_each_equal_run_stack",),
    ),
    # a Laplace level reads its kept evaluation at whatever latent it is
    # asked about, not only at the one with its raw bytes
    Mutant(
        "laplace-kept-evaluation-unkeyed",
        "src/polydyn/laplace.py",
        "if at is None or at.x.tobytes() != x.tobytes():",
        "if at is None:",
        ("tests/test_laplace.py::test_a_level_absorbing_away_from_its_last_new_mean_equals_a_fresh_level",
         "tests/test_laplace.py::test_a_level_tells_a_zero_latent_from_a_negative_zero_one",
         "tests/test_laplace.py::test_mean_paths_that_share_a_level_system_each_equal_run_stack"),
    ),
    # a level reads the array it kept for its last belief as the covariance
    # of any belief, also one it built before
    Mutant(
        "belief-entropy-stale-array",
        "src/polydyn/laplace.py",
        "return sigma if rho.cov is cov else rho.cov_array()",
        "return rho.cov_array() if sigma is None else sigma",
        ("tests/test_laplace.py::test_a_new_belief_reads_its_entropy_from_the_array_it_was_built_from",),
    ),
    # central differences write the k-th difference into row k, not column
    # k: the Jacobian of a square level is transposed, and a 3 -> 2 level's
    # has no row 2
    Mutant(
        "jacobian-column-as-row",
        "src/polydyn/laplace.py",
        "out=jac[:, k]",
        "out=jac[k]",
        ("tests/test_laplace.py::"
         "test_central_differences_read_fresh_points_and_give_a_c_ordered_jacobian",),
    ),
    # a learning rate of True runs as rate 1
    Mutant(
        "rate-bool-accepted",
        "src/polydyn/laplace.py",
        "        if not isinstance(rate, numbers.Real) or isinstance(rate, bool):\n",
        "        if not isinstance(rate, numbers.Real):\n",
        ("tests/test_laplace.py::test_a_rate_that_is_not_a_real_number_is_refused",),
    ),
    # the count rule takes a bool for an integer: True is one tick, one step
    # or one dimension
    Mutant(
        "count-bool-accepted",
        "src/polydyn/spaces.py",
        "    if isinstance(value, numbers.Integral) and not isinstance(value, bool):\n",
        "    if isinstance(value, numbers.Integral):\n",
        ("tests/test_spaces.py::test_a_count_is_a_non_negative_integer_and_not_a_bool",
         "tests/test_laplace.py::test_the_runners_refuse_a_run_length_that_is_not_an_integer",
         "tests/test_systems.py::test_a_numpy_integer_is_a_tick_and_a_bool_is_not"),
    ),
    # the count rule's int fast path returns an int before the sign test, so
    # a negative horizon or step count is taken
    Mutant(
        "count-int-unsigned",
        "src/polydyn/spaces.py",
        "    n = integer(value)\n    if n is None:\n",
        "    if type(value) is int:\n        return value\n    n = integer(value)\n    if n is None:\n",
        ("tests/test_spaces.py::test_a_count_is_a_non_negative_integer_and_not_a_bool",
         "tests/test_hier.py::test_a_negative_horizon_is_refused",
         "tests/test_laplace.py::test_the_runners_refuse_a_negative_step_count"),
    ),
    # a composite's own law, read from its factors' vectors, is not checked,
    # so a product whose weights sum past the tolerance is compared
    Mutant(
        "own-law-unchecked",
        "src/polydyn/hier.py",
        "            _check_product(vec.tolist(), ",
        "            (lambda *_: None)(vec.tolist(), ",
        ("tests/test_table_counts.py::"
         "test_a_composites_own_law_is_checked_where_its_vector_is_read",),
    ),
    # quasi_bisim takes its section cap as given: 2.5 reads every section of
    # three, True one
    Mutant(
        "max-sections-unchecked",
        "src/polydyn/hier.py",
        '    max_sections = check_count(max_sections, "max_sections", HierError)\n'
        "    theta, psi",
        "    theta, psi",
        ("tests/test_hier.py::test_a_section_cap_is_a_count",),
    ),
    # two Diracs over a Euclidean space compared as labels, so points one ulp
    # apart read 1.0 and a flow tolerance admits no gap
    Mutant(
        "euclid-diracs-as-labels",
        "src/polydyn/dist.py",
        "    if both_finite and not both_points:\n",
        "    if both_finite:\n",
        ("tests/test_dist.py::test_distance_by_the_kinds_of_a_pair",
         "tests/test_vector_field.py::test_euclidean_flow_gaps_are_read_on_the_points"),
    ),
    # the flow check reads the walk from step(t, x)'s point out of x's walk,
    # by a memo of every point a walk reached, so step(s) after step(t) is
    # step(s + t) by construction
    Mutant(
        "flow-successor-memo",
        "src/polydyn/systems.py",
        "    def step(t: int, s):\n"
        "        return walk(s).law(cs.time.check(t))\n",
        "    reached: dict = {}\n"
        "\n"
        "    def step(t: int, s):\n"
        "        w, t0 = reached.setdefault(cs.walk(s).key, (walk(s), 0))\n"
        "        law = w.law(t0 + cs.time.check(t))\n"
        "        if isinstance(law, Dirac):\n"
        "            reached.setdefault(cs.walk(law.point).key, (w, t0 + t))\n"
        "        return law\n",
        ("tests/test_vector_field.py::test_a_field_that_reads_a_call_counter_fails_the_flow_law",),
    ),
    # a square's pushes kept by t alone, beside the base rows the bundle
    # check keeps for the whole call, so every total section reads the
    # first one's push
    Mutant(
        "square-push-by-time",
        "src/polydyn/systems.py",
        "        pushed = _push(left.table, image, m, t)\n",
        "        pushed = _kept(targets, -t, lambda: _push(left.table, image, m, t))\n",
        ("tests/test_random_bundle.py::test_a_bundle_check_pushes_each_closure_once_per_time",
         "tests/test_square_route.py::test_generated_bundle_reports_are_the_per_state_reports"),
    ),
    # a composite's factors copied by ``replace``, so a copy with another
    # init or absorb is tabulated from the factors' tables and init vectors
    Mutant(
        "composite-factors-copied",
        "src/polydyn/hier.py",
        "field(default=None, init=False, compare=False, repr=False)",
        "field(default=None, compare=False, repr=False)",
        ("tests/test_tables.py::test_a_copy_of_a_composite_is_tabulated_from_its_own_data",),
    ),
    # the measure-preserving check compares the pushed measure with itself,
    # not with the measure, so every flow preserves it
    Mutant(
        "measure-compared-with-itself",
        "src/polydyn/random_bundle.py",
        "mp.flow.step(t, w)), mp.base.measure)",
        "mp.flow.step(t, w)), bind(mp.base.measure, lambda w: mp.flow.step(t, w)))",
        ("tests/test_law_reports.py::test_flat_law_reports_share_one_shape"
         "[check_measure_preserving-fail]",),
    ),
    # the random-system check leaves the last total state out of its sample,
    # so a square that fails at that state alone is never read
    Mutant(
        "random-system-last-state-dropped",
        "src/polydyn/random_bundle.py",
        "states = list(points(rds.total_states))",
        "states = list(points(rds.total_states))[:-1]",
        ("tests/test_law_reports.py::test_a_random_system_that_fails_at_one_state_is_named_there",),
    ),
    # the bundle check reads its squares at the last time alone, where a
    # projection onto one base state can agree with a base cycle
    Mutant(
        "bundle-last-time-only",
        "src/polydyn/random_bundle.py",
        "ct, bases, bs.proj, _TIMES, states,",
        "ct, bases, bs.proj, _TIMES[-1:], states,",
        ("tests/test_law_reports.py::test_flat_law_reports_share_one_shape[check_bundle-fail]",),
    ),
    # a lens key leaves out the last source position, so two lenses that
    # differ there alone have one key
    Mutant(
        "key-last-position-dropped",
        "src/polydyn/poly.py",
        "    for i in points(f.source.positions):\n        fwd = f.forward(i)\n",
        "    for i in list(points(f.source.positions))[:-1]:\n        fwd = f.forward(i)\n",
        ("tests/test_hier.py::test_copy_then_moving_one_label_is_not_copy",),
    ),
    # the Bayes check reads tick 0 alone, where a pair of point-mass starts
    # agrees however the inversion is warped
    Mutant(
        "bayes-tick-zero-only",
        "src/polydyn/hier.py",
        'quasi_bisim(lhs, rhs, "exists", "exists", horizon=horizon, tol=tol)',
        'quasi_bisim(lhs, rhs, "exists", "exists", horizon=0, tol=tol)',
        ("tests/test_bayes.py::test_bayes_check_rejects_a_perturbed_inverse",),
    ),
    # the Bayes check accepts horizon 0, where it reads tick 0 alone and
    # relates a warped inversion
    Mutant(
        "bayes-horizon-zero-accepted",
        "src/polydyn/hier.py",
        "is not None and horizon < 1:\n",
        "is not None and horizon < 0:\n",
        ("tests/test_bayes.py::test_bayes_check_refuses_a_horizon_below_one",),
    ),
    # the random-system check skips the first section of the interface,
    # which drops every case of an interface with one section
    Mutant(
        "random-system-first-section-dropped",
        "src/polydyn/random_bundle.py",
        "enumerate(all_sections(rds.interface))",
        "enumerate(all_sections(rds.interface)[1:])",
        ("tests/test_law_reports.py::test_flat_law_reports_share_one_shape"
         "[check_random_system-fail]",),
    ),
    # dist.gaussian's finiteness check reads the diagonal alone, so an
    # off-diagonal NaN or inf reaches the symmetry check
    Mutant(
        "gaussian-offdiagonal-finite-unchecked",
        "src/polydyn/dist.py",
        "_all_true(np.abs(sig) < _SYMMETRIZABLE_0D)",
        "_all_true(np.abs(sig.diagonal()) < _SYMMETRIZABLE_0D)",
        ("tests/test_dist.py::test_each_gaussian_refusal_keeps_its_type_and_message",),
    ),
    # dist.gaussian reads finiteness from Python's max of the magnitudes,
    # which skips a NaN that is not first, so an off-diagonal NaN reaches the
    # symmetry check
    Mutant(
        "gaussian-finite-by-max",
        "src/polydyn/dist.py",
        "_all_true(np.abs(sig) < _SYMMETRIZABLE_0D)",
        "max(np.abs(sig).ravel().tolist(), default=0.0) < _SYMMETRIZABLE",
        ("tests/test_dist.py::test_each_gaussian_refusal_keeps_its_type_and_message"
         "[nan in an off-diagonal entry]",),
    ),
    # a guard takes any matrix to its singular values, NaN and inf included
    Mutant(
        "guarded-finite-unchecked",
        "src/polydyn/laplace.py",
        "        if not _all_true(np.isfinite(sigma)):\n",
        "        if False:\n",
        ("tests/test_laplace.py::test_the_refusals_around_the_gufuncs_are_the_same_and_warn_nothing",),
    ),
    # a label distance reads the first law's atoms alone, so {0: 1/2, 1: 1/2}
    # against {0: 0.4, 1: 0.4, 2: 0.2} reads 0.1
    Mutant(
        "label-distance-one-support",
        "src/polydyn/dist.py",
        "for a in w1.keys() | w2.keys())",
        "for a in w1)",
        ("tests/test_dist.py::test_label_distance_is_the_prob_scan_bit_for_bit",),
    ),
    # every closure's compose cases taken to hold by construction, the RK4
    # and user-kernel ones too, where the law can break
    Mutant(
        "by-construction-on-every-closure",
        "src/polydyn/systems.py",
        "    if isinstance(cs, _DiscreteClosure):\n"
        "        return np.zeros((len(splits), len(states)))\n",
        "    if isinstance(cs, ClosedSystem):\n"
        "        return np.zeros((len(splits), len(states)))\n",
        ("tests/test_law_reports.py::test_a_block_reports_every_failing_state_in_order",
         "tests/test_vector_field.py::test_a_field_that_reads_a_call_counter_fails_the_flow_law"),
    ),
    # a discrete closure past the table has its compose cases stepped, so
    # the rounding of its nested binds decides its verdict
    Mutant(
        "untabled-closure-stepped",
        "src/polydyn/systems.py",
        "    if isinstance(cs, _DiscreteClosure):\n"
        "        return np.zeros((len(splits), len(states)))\n",
        "    if isinstance(cs, _DiscreteClosure) and cs.table is not None:\n"
        "        return np.zeros((len(splits), len(states)))\n",
        ("tests/test_law_reports.py::test_a_closure_past_the_table_composes_by_construction",),
    ),
    # a missing power of the tick matrix built one tick short, so step(t)
    # is no longer the t-fold product the compose rule relies on
    Mutant(
        "tick-power-one-short",
        "src/polydyn/systems.py",
        "            for _ in range(t - k):\n",
        "            for _ in range(t - k - 1):\n",
        ("tests/test_systems.py::test_a_tabulated_closure_composes_up_to_rounding",),
    ),
    # a flow check's compose cases take any split, off the time monoid, and
    # the zero rows of a discrete closure hold it without a word
    Mutant(
        "tabulated-split-unchecked",
        "src/polydyn/systems.py",
        "    splits = [(check(s), check(t)) for s, t in times]\n",
        "    splits = list(times)\n",
        ("tests/test_systems.py::"
         "test_a_flow_check_refuses_a_split_off_the_time_monoid_on_every_route",),
    ),
    # the stationarity probe stops one tick short of the last one a split
    # reaches
    Mutant(
        "stationary-last-tick-dropped",
        "src/polydyn/systems.py",
        "    for t in range(1, last + 1):\n",
        "    for t in range(1, last):\n",
        ("tests/test_systems.py::test_an_update_that_moves_at_the_last_tick_alone_fails_there",),
    ),
    # a law report accepts a quantifier with no value, and checks what is left
    Mutant(
        "report-accepts-no-case",
        "src/polydyn/systems.py",
        "        if len(values) == 0:\n",
        "        if False:\n",
        ("tests/test_law_reports.py::test_a_law_over_an_empty_quantifier_is_refused_by_name",),
    ),
    # a law report takes a NaN deviation for one within its tolerance, so a
    # field that reads NaN passes the flow law
    Mutant(
        "report-nan-passes",
        "src/polydyn/systems.py",
        "        if not worst <= tol:\n",
        "        if worst > tol:\n",
        ("tests/test_law_reports.py::test_a_nan_deviation_fails_its_law",),
    ),
    # a block reports only its first failing state
    Mutant(
        "report-block-first-violation-only",
        "src/polydyn/systems.py",
        "            rows, cols = np.nonzero(~(devs <= tol))\n",
        "            rows, cols = (a[:1] for a in np.nonzero(~(devs <= tol)))\n",
        ("tests/test_law_reports.py::test_a_block_reports_every_failing_state_in_order",),
    ),
    # a batch's worst deviation read by a reduction that skips NaN, so a
    # NaN among deviations within the tolerance passes the batch
    Mutant(
        "report-batch-nan-skipped",
        "src/polydyn/systems.py",
        "        worst = np.maximum.reduce(devs, axis=None)\n",
        "        worst = np.fmax.reduce(devs, axis=None)\n",
        ("tests/test_law_reports.py::"
         "test_a_batch_reads_nan_and_lists_its_violations_row_by_row",),
    ),
    # a failing batch lists its violations column by column, state after
    # state, not row by row
    Mutant(
        "report-batch-column-order",
        "src/polydyn/systems.py",
        "            rows, cols = np.nonzero(~(devs <= tol))\n",
        "            cols, rows = np.nonzero(~(devs <= tol).T)\n",
        ("tests/test_law_reports.py::"
         "test_a_batch_reads_nan_and_lists_its_violations_row_by_row",
         "tests/test_law_reports.py::"
         "test_must_fail_control_reports_are_pinned[bundle-steered-base]"),
    ),
    # a weight total of NaN is within the tolerance of 1, as it once was
    Mutant(
        "check-total-nan-accepted",
        "src/polydyn/dist.py",
        "    if not abs(total - 1.0) <= WEIGHT_TOL:\n",
        "    if abs(total - 1.0) > WEIGHT_TOL:\n",
        ("tests/test_dist.py::test_a_nan_weight_is_refused",
         "tests/test_dist.py::test_a_product_with_a_nan_weight_is_refused",
         "tests/test_cli.py::test_a_nan_weight_in_a_spec_is_a_usage_error"),
    ),
    # the unit rows of the candidate point masses put one candidate early,
    # so each point mass is read as the one enumerated after it
    Mutant(
        "candidate-unit-row-shifted",
        "src/polydyn/hier.py",
        "out[np.arange(g, g + len(self.ids)), ",
        "out[np.arange(g - 1, g - 1 + len(self.ids)), ",
        ("tests/test_table_counts.py::test_candidate_rows_are_the_laws_read_atom_by_atom",
         "tests/test_tables.py::test_the_table_readings_are_pinned"),
    ),
    # the uniform candidate's row left empty, a law of no mass
    Mutant(
        "candidate-uniform-row-dropped",
        "src/polydyn/hier.py",
        "        if self.spread:\n            out[-1] = 1.0 / table.size\n",
        "",
        ("tests/test_table_counts.py::test_candidate_rows_are_the_laws_read_atom_by_atom",
         "tests/test_tables.py::test_the_table_readings_are_pinned"),
    ),
    # a verdict marks a mismatch only where a reading exceeds the tolerance,
    # which a NaN reading never does
    Mutant(
        "bisim-nan-passes",
        "src/polydyn/hier.py",
        "new = (at_section < 0) & ~(dev <= tol)",
        "new = (at_section < 0) & (dev > tol)",
        ("tests/test_hier.py::test_a_nan_reading_is_a_mismatch",),
    ),
    # the lens oracle says yes to any two lenses
    Mutant(
        "maps-agree-always-true",
        "src/polydyn/poly.py",
        '    """Exact extensional equality of two lenses with the same finite shape."""\n',
        '    """Exact extensional equality of two lenses with the same finite shape."""\n'
        "    return True\n",
        ("tests/test_poly.py::test_maps_agree_refuses_each_difference",),
    ),
    # the spec reader takes JSON true for the number 1
    Mutant(
        "spec-bool-as-number",
        "src/polydyn/specio.py",
        "    if type(value) is int:\n",
        "    if isinstance(value, int):\n",
        ("tests/test_cli.py::test_a_boolean_is_never_a_number_or_a_label",),
    ),
    # a nested refusal names only the last object key of its path
    Mutant(
        "spec-path-dropped",
        "src/polydyn/specio.py",
        'return f"{head}.{self.key}" if head else self.key',
        "return self.key",
        ("tests/test_cli.py::test_a_nested_refusal_names_its_whole_key_path",),
    ),
    # the reader's one finiteness rule passes NaN and Infinity, in a label and
    # a coordinate as in a number
    Mutant(
        "spec-nonfinite-label",
        "src/polydyn/specio.py",
        "    return value if math.isfinite(value) else None\n",
        "    return value\n",
        ("tests/test_cli.py::test_a_non_finite_label_or_coordinate_is_a_usage_error",
         "tests/test_spaces.py::test_a_point_json_of_another_shape_is_refused"),
    ),
    # a categorical law's JSON keeps a key that the reader takes for a label
    # of the law's space, so two atoms merge or an atom reads as that label
    Mutant(
        "json-key-collision-kept",
        "src/polydyn/specio.py",
        "            if key is not a and contains(d.space, key):\n"
        "                raise DistError(\n",
        "            if False:\n"
        "                raise DistError(\n",
        ("tests/test_dist.py::test_dist_to_json_refuses_a_key_the_reader_would_misread",),
    ),
    # the gap between two overflowed points warns where it should read NaN
    Mutant(
        "distance-overflow-warns",
        "src/polydyn/dist.py",
        'with np.errstate(invalid="ignore"):',
        "with np.errstate():",
        ("tests/test_law_reports.py::test_a_nan_deviation_fails_its_law",),
    ),
    # a table system's Euclidean inputs pass the reader again
    Mutant(
        "spec-directions-unchecked",
        "src/polydyn/specio.py",
        "        if not is_finite(space):\n"
        "            raise self.refuse(\"a finite space\", \"an update table lists each input\")\n",
        "",
        ("tests/test_cli.py::test_inputs_that_are_not_finite_are_a_usage_error",),
    ),
    # the shared __setattr__ of every record stores the value it is given
    Mutant(
        "record-assignment-allowed",
        "src/polydyn/spaces.py",
        '    raise FrozenInstanceError(f"cannot assign to field {name!r}")',
        "    object.__setattr__(self, name, value)",
        ("tests/test_records.py::test_a_record_is_frozen",),
    ),
    # a given-first pass that accepts any side-a given law with a match, not
    # only the first, so its witness is not the read of every candidate's
    Mutant(
        "given-first-any-row",
        "src/polydyn/hier.py",
        "    if not (mismatches[0][0] < 0).any():\n",
        "    if not (mismatches[0] < 0).any():\n",
        ("tests/test_tables.py::"
         "test_a_given_first_pass_that_fails_at_its_first_law_reads_every_candidate",
         "tests/test_table_properties.py::"
         "test_a_given_first_verdict_is_the_verdict_of_every_candidate"),
    ),
    # a law summing its rows in order of the first state of its section's
    # block that leads to each, so its last bit depends on the rows beside it
    Mutant(
        "advance-in-block-order",
        "src/polydyn/hier.py",
        "        codes = law * n_cols + inv[law // (len(mass) // n_blocks), state]\n"
        "        first = np.full((len(mass), n_cols), width)\n"
        "        np.minimum.at(first.reshape(-1), codes, state)\n",
        "        codes = np.arange(n_blocks)[:, None] * n_cols + inv\n"
        "        first = np.full((n_blocks, n_cols), width)\n"
        "        np.minimum.at(first.reshape(-1), codes, np.arange(width))\n"
        "        first = first.repeat(len(mass) // n_blocks, axis=0)\n",
        ("tests/test_table_properties.py::test_a_row_reads_the_same_bits_alone_or_beside_any_rows",),
    ),
    # a record's hash leaves out its first compared field
    Mutant(
        "record-hash-skips-field",
        "src/polydyn/spaces.py",
        "    return hash(self._record_key())",
        "    return hash(self._record_key()[1:])",
        ("tests/test_records.py::test_a_record_is_its_frozen_dataclass_twin",),
    ),
)


def run_tests(tree: Path, tests) -> int:
    """pytest's exit code for the given node ids, run in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def verdict(tree: Path, mutant: Mutant) -> str:
    """killed, survived, stale, or error (pytest neither passed nor failed)."""
    path = tree / mutant.path
    source = path.read_text(encoding="utf-8")
    if source.count(mutant.snippet) != 1:
        return "stale"
    path.write_text(source.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    try:
        code = run_tests(tree, mutant.tests)
    finally:
        path.write_text(source, encoding="utf-8")
    return {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="polydyn-mutants-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", "out")
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=ignore)
            else:
                shutil.copy2(source, tree / name)
        tests = list(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code = run_tests(tree, tests)
        if code != 0:
            print(f"the unmutated tree fails its mutants' tests (pytest exit {code})")
            return 1
        failed = 0
        for mutant in MUTANTS:
            result = verdict(tree, mutant)
            failed += result != "killed"
            print(f"{mutant.name}: {result}")
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
