"""Mutation check of the test suite: each recorded mutant is a small edit to
the engine that the tests it names must catch.

For each mutant, the script copies ``src/``, ``tests/``, ``perfbench/`` and
``pyproject.toml`` into a temporary directory, applies the edit there (its
text must occur exactly once), runs the named tests with pytest and requires
them to fail. The unmutated copy must first pass every named test, so that a
kill is never a failure of the tests themselves. pytest does not collect
this file.

Run from anywhere, with pytest installed:

    python tests/mutants.py

It prints one line per mutant and exits 0 when every mutant is killed, 1
otherwise.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# two adjacent blocks of trainer._plan_session, which one mutant swaps
_TAKE_CONSTANTS = (
    "        if payloads is not None:\n"
    "            # distillation covers the replayed rows only, towards the outputs of\n"
    "            # the model before this session: the live model, read (when the\n"
    "            # form distils) before its head expands or its layers freeze\n"
    "            ex = snapshot_constants(model, payloads, ex_classes, profile.weights.T, profile.distill_form, latent)\n"
)
_EXPAND_HEAD = "        model.head.expand(session.task_id, head_rng)\n"

# (name, file under src/cddet, text, replacement, tests that must fail)
MUTANTS = [
    (
        "sumlog-c-ordered-gather", "losses.py",
        "return np.add.reduce(logp[:, group], axis=1), grad",
        "return np.add.reduce(np.ascontiguousarray(logp[:, group]), axis=1), grad",
        ["tests/test_losses.py::TestAggregate::test_a_group_adds_in_class_order"],
    ),
    (
        "sumlogit-c-ordered-gather", "losses.py",
        "inside = logp[:, group]",
        "inside = np.ascontiguousarray(logp[:, group])",
        ["tests/test_losses.py::TestAggregate::test_a_group_adds_in_class_order"],
    ),
    (
        "gamma-d-logit-gradient-dropped", "losses.py",
        "            d_logits[n_new:] += gamma_d * g\n",
        "",
        ["tests/test_step.py"],
    ),
    (
        "gamma-m-theta-gradient-dropped", "losses.py",
        "    if d_theta_margin is not None:\n        g_theta += d_theta_margin\n",
        "",
        ["tests/test_step.py"],
    ),
    (
        "af-divisor-n-minus-1", "metrics.py",
        "total += bwt / (n - i - 1)",
        "total += bwt / (n - 1)",
        ["tests/test_metrics.py::TestAF"],
    ),
    (
        "herding-tie-to-highest-index", "memory.py",
        "return int(remaining[int(np.argmin(dists))])",
        "return int(remaining[dists.size - 1 - int(np.argmin(dists[::-1]))])",
        ["tests/test_memory.py::TestHerding::test_tie_breaks_to_lowest_index"],
    ),
    (
        "herding-tie-break-depends-on-m", "memory.py",
        "best = _herd_exact_pick(features, mu, total, np.flatnonzero(~taken), k)",
        "best = _herd_exact_pick(features, mu, total, np.flatnonzero(~taken)[:: (-1) ** m], k)",
        ["tests/test_memory.py::TestHerdingPrefix::test_a_shorter_selection_is_a_prefix"],
    ),
    (
        "quota-remainder-to-highest-classes", "memory.py",
        "(1 if i < rem else 0)",
        "(1 if i >= num_classes - rem else 0)",
        ["tests/test_memory.py::TestQuotas::test_remainder_to_lowest_indices"],
    ),
    (
        "accuracy-rows-numbered-after-dropping-blank-lines", "metrics.py",
        'lines = [(no, line) for no, line in enumerate(read_text(path).splitlines(), start=1) if line.strip() != ""]',
        'lines = list(enumerate([line for line in read_text(path).splitlines() if line.strip() != ""], start=1))',
        ["tests/test_parsers.py::TestAccuracyMatrixCsv::test_an_error_names_its_line_in_the_file"],
    ),
    (
        "eval-stray-record-id-unchecked", "cli.py",
        'if ("\\n" + "\\n".join(ids)).count("\\n" + prefix) < len(ids):',
        "if False:",
        ["tests/test_cli.py::TestEval::test_predictions_relabelled_in_a_data_run"],
    ),
    (
        "eval-repeated-record-id-unchecked", "cli.py",
        "if len(set(ids)) < len(ids):",
        "if False:",
        ["tests/test_cli.py::TestEval::test_repeated_record_id"],
    ),
    (
        "bc-keeps-gamma-m", "trainer.py",
        '        weights["gamma_m"] = 0.0\n',
        "",
        ["tests/test_trainer.py::TestProfiles::test_every_builtin_profile_resolves_on_every_system"],
    ),
    (
        "step-rows-ignores-eps", "losses.py",
        "label_smooth(classes, model.head.theta.shape[0], eps)",
        "label_smooth(classes, model.head.theta.shape[0], 0.0)",
        [
            "tests/test_losses.py::TestTotalLoss::test_step_rows_smooths_the_label_rows_by_eps",
            "tests/test_pins.py::test_metrics_json_pinned",
        ],
    ),
    (
        "read-text-without-oserror-branch", "errors.py",
        "    try:\n        with open(path, \"rb\") as fh:\n            data = fh.read()\n"
        "    except OSError as exc:\n        raise ParseError(f\"cannot read ({exc.strerror})\", path=path) from None\n",
        "    with open(path, \"rb\") as fh:\n        data = fh.read()\n",
        ["tests/test_cli.py::TestUnreadableInputs::test_an_unreadable_input_exits_2_naming_it"],
    ),
    (
        "duplicate-task-check-skips-the-warmup", "trainer.py",
        "task_ids = [s.task_id for s in ordered]",
        "task_ids = [s.task_id for s in sessions]",
        ["tests/test_trainer.py::TestRunScenario::test_warmup_task_repeated_in_the_stream_rejected_before_training"],
    ),
    (
        "snapshot-for-any-old-term-after-the-first-session", "losses.py",
        '    if distill_form == "none":\n        return ReplayConstants(classes)\n',
        "",
        ["tests/test_trainer.py::TestRunSession::test_a_snapshot_is_taken_only_to_distil_replayed_rows"],
    ),
    (
        "constants-taken-after-the-head-expands", "trainer.py",
        _TAKE_CONSTANTS + "\n" + _EXPAND_HEAD,
        _EXPAND_HEAD + "\n" + _TAKE_CONSTANTS,
        [
            "tests/test_step.py::test_the_replayed_rows_constants_are_the_old_models_outputs",
            "tests/test_trainer.py::TestRunSession::test_a_distilling_replay_run_snapshots_once_a_later_session",
        ],
    ),
    (
        "epoch-order-puts-replayed-rows-first", "trainer.py",
        "window + (perm >= n_new)",
        "window + (perm < n_new)",
        ["tests/test_step.py::test_epoch_layout_puts_each_windows_new_rows_first"],
    ),
    (
        "distillable-check-never-raises", "losses.py",
        "    if ex.kd_p is None and ex.old_features is None:\n",
        "    if False:\n",
        ["tests/test_losses.py::TestTotalLoss::test_distilling_without_snapshot_constants_is_a_contract_error"],
    ),
    (
        "mixup-beta-drawn-before-the-permutation", "trainer.py",
        "        partner = mixup_rng.permutation(n_new)\n"
        "        lam = float(mixup_rng.beta(profile.mixup_alpha, profile.mixup_alpha))\n",
        "        lam = float(mixup_rng.beta(profile.mixup_alpha, profile.mixup_alpha))\n"
        "        partner = mixup_rng.permutation(n_new)\n",
        [
            "tests/test_step.py::test_mixup_mixes_the_gathered_new_rows_with_a_permutation_of_themselves",
            "tests/test_pins.py::test_metrics_json_pinned",
        ],
    ),
    (
        "step-takes-constants-at-session-rows", "trainer.py",
        "rows.ex.take(idx[n_new:] - rows.n_new)",
        "rows.ex.take(idx[n_new:])",
        ["tests/test_step.py::test_epoch_layout_steps_equal_a_per_step_gather"],
    ),
    (
        "window-counts-the-first-replayed-row-as-new", "trainer.py",
        "np.add.reduceat(order < rows.n_new, starts)",
        "np.add.reduceat(order <= rows.n_new, starts)",
        [
            "tests/test_step.py::test_epoch_layout_steps_equal_a_per_step_gather",
            "tests/test_step.py::test_a_sessions_rows_never_move",
        ],
    ),
    (
        "memory-takes-back-one-row-early", "trainer.py",
        "memory.take_back(rows.x[rows.n_new :].copy())",
        "memory.take_back(rows.x[rows.n_new - 1 :].copy())",
        [
            "tests/test_trainer.py::TestLending::test_each_old_class_keeps_a_prefix_of_its_rows",
            "tests/test_trainer.py::TestLending::test_a_session_that_raises_leaves_the_memory_as_it_was",
        ],
    ),
    (
        "memory-takes-back-views-of-the-session-rows", "trainer.py",
        "memory.take_back(rows.x[rows.n_new :].copy())",
        "memory.take_back(rows.x[rows.n_new :])",
        ["tests/test_trainer.py::TestLending::test_the_memory_holds_no_rows_while_the_session_trains"],
    ),
    (
        "memory-keeps-its-arrays-while-lent", "memory.py",
        "        self.classes = {}\n        return stacked\n",
        "        return stacked\n",
        ["tests/test_trainer.py::TestLending::test_the_memory_holds_no_rows_while_the_session_trains"],
    ),
    (
        "failed-plan-keeps-the-rows-lent", "trainer.py",
        "            memory.take_back(payloads)\n",
        "            pass\n",
        ["tests/test_trainer.py::TestLending::test_a_session_that_raises_leaves_the_memory_as_it_was"],
    ),
    (
        "mixup-writes-the-session-rows", "trainer.py",
        "        for block in (x, targets):\n",
        "        for block in (rows.x, rows.targets):\n",
        [
            "tests/test_step.py::test_mixup_leaves_the_held_arrays_unwritten",
            "tests/test_step.py::test_a_sessions_rows_never_move",
        ],
    ),
    (
        "activations-warn-on-overflow", "model.py",
        "    @np.errstate(over=\"ignore\")  # the finiteness check names the layer that overflows\n",
        "",
        [
            "tests/test_cli.py::TestRun::test_a_diverging_run_exits_1_naming_its_session_and_epoch",
            "tests/test_trainer.py::TestNumericsErrors",
        ],
    ),
    (
        "batch-of-two-rejected", "trainer.py",
        "if self.batch_size < 2:",
        "if self.batch_size < 3:",
        ["tests/test_trainer.py::TestRunScenario::test_a_batch_of_two_rows_trains"],
    ),
    (
        "default-seed-one", "trainer.py",
        "    seed: int = 0\n",
        "    seed: int = 1\n",
        ["tests/test_cli.py::TestRun::test_a_run_given_no_seed_uses_seed_0"],
    ),
    (
        "memory-totals-count-a-missing-memory", "trainer.py",
        "memory.total() if memory is not None else 0)",
        "memory.total() if memory is not None else 1)",
        ["tests/test_trainer.py::TestRunScenario::test_memory_totals_record_the_memory_after_each_session"],
    ),
    (
        "rebalance-leaves-a-row-past-the-quotas", "memory.py",
        "quota = per_class[rank] if rank < num_classes else 0",
        "quota = per_class[rank] if rank < num_classes else 1",
        ["tests/test_memory.py::TestMemory::test_a_class_past_the_quotas_keeps_no_rows"],
    ),
    (
        "adam-beta-rows-swapped", "trainer.py",
        "_BETAS = np.array([[BETA1], [BETA2]])",
        "_BETAS = np.array([[BETA2], [BETA1]])",
        ["tests/test_trainer.py::TestAdam::test_three_steps_match_a_textbook_adam"],
    ),
    (
        "latent-replay-freezes-in-the-first-session", "trainer.py",
        "if latent and len(registry.tasks) > 1:",
        "if latent and len(registry.tasks) > 0:",
        ["tests/test_trainer.py::TestRunRelations::test_one_session_trains_one_model_at_any_budget"],
    ),
    (
        "rebalance-reserves-the-next-tasks-classes", "trainer.py",
        "memory.rebalance(len(model.head.registry))",
        "memory.rebalance(len(model.head.registry) + 2)",
        ["tests/test_trainer.py::TestRunRelations::test_budgets_past_every_train_row_agree"],
    ),
    (
        "relu-written-into-the-layer-input", "model.py",
        "z = acts[-1] @ self.weights[i]",
        "z = np.maximum(acts[-1], 0.0, out=acts[-1]) @ self.weights[i]",
        ["tests/test_model.py::TestForward::test_forward_passes_leave_their_inputs_unwritten"],
    ),
    (
        "capture-taken-after-the-next-layer", "model.py",
        "        captured = self.np_activations(x, 0, self.capture_layer + 1)[-1]\n"
        "        return self.np_activations(captured, self.capture_layer + 1)[-1], captured\n",
        "        captured = self.np_activations(x, 0, self.capture_layer + 2)[-1]\n"
        "        return self.np_activations(captured, self.capture_layer + 2)[-1], captured\n",
        ["tests/test_model.py::TestRegistryInvariants::test_latent_replay_roundtrip"],
    ),
    (
        "single-layer-capture-copies-the-input", "model.py",
        "        return self.np_activations(captured, self.capture_layer + 1)[-1], captured\n",
        "        return self.np_activations(captured, self.capture_layer + 1)[-1], "
        "captured if len(self.weights) > 1 else x.copy()\n",
        ["tests/test_model.py::TestRegistryInvariants::test_a_single_layer_captures_its_output"],
    ),
    (
        "head-keeps-its-own-generator", "model.py",
        "        new_rows = _uniform_init(rng, (2, width), width)\n",
        "        self.rng = getattr(self, \"rng\", rng)\n        new_rows = _uniform_init(self.rng, (2, width), width)\n",
        ["tests/test_trainer.py::TestSplitRun"],
    ),
    (
        "battery-drops-a-check", "verify.py",
        "        check_snapshot_immutability(seed),\n",
        "",
        ["tests/test_cli.py::TestVerify::test_battery_passes_and_is_deterministic"],
    ),
    # the gradient suite's operands, each moved off what the step hands a term
    (
        "gradient-suite-never-targets-class-0", "verify.py",
        "rows = ls.label_smooth(rng.integers(0, 4, size=3), 4, 0.0)",
        "rows = ls.label_smooth(rng.integers(1, 4, size=3), 4, 0.0)",
        ["tests/test_losses.py::TestLossGradients::test_the_battery_checks_the_terms_on_the_steps_operands"],
    ),
    (
        "gradient-suite-smooths-its-rows-flat", "verify.py",
        "rows = ls.label_smooth(rng.integers(0, 4, size=3), 4, 0.0)",
        "rows = ls.label_smooth(rng.integers(0, 4, size=3), 4, 1.0)",
        ["tests/test_losses.py::TestLossGradients::test_the_battery_checks_the_terms_on_the_steps_operands"],
    ),
    (
        "gradient-suite-distils-past-the-old-columns", "verify.py",
        "ls.kd_kl(old, z, 2.0, 4)",
        "ls.kd_kl(old, z, 2.0, 5)",
        ["tests/test_losses.py::TestLossGradients::test_the_battery_checks_the_terms_on_the_steps_operands"],
    ),
    (
        "gradient-suite-lambda-outside-the-unit-interval", "verify.py",
        "ls.mt_class_loss(z, rows, pol, 0.3, rule)",
        "ls.mt_class_loss(z, rows, pol, 1.3, rule)",
        ["tests/test_losses.py::TestLossGradients::test_the_battery_checks_the_terms_on_the_steps_operands"],
    ),
    (
        "coincidence-bound-loosened", "verify.py",
        '"aggregation-coincidence", worst < 1e-12',
        '"aggregation-coincidence", worst < 1e-6',
        ["tests/test_losses.py::TestAggregate::test_the_coincidence_check_fails_on_a_rule_that_drifts"],
    ),
    (
        "gradient-suite-skips-feature-kd", "verify.py",
        "        track(dc.grad_check(lambda z: ls.kd_feature(feats, z), dc.Tensor(rng.normal(size=(3, 4)))))\n",
        "        dc.Tensor(rng.normal(size=(3, 4)))\n",
        ["tests/test_losses.py::TestLossGradients::test_the_battery_fails_on_a_wrong_gradient"],
    ),
    # one bit-moving regrouping per loss kernel: each divides by the window's
    # row count earlier or later, which rounds alike on the pinned runs'
    # power-of-two windows, so the 3-row oracles must catch it
    (
        "ce-gradient-divides-early", "losses.py",
        "grad = ((np.exp(logp) if p is None else p) * np.add.reduce(rows, axis=1, keepdims=True) - rows) / n",
        "grad = (np.exp(logp) if p is None else p) * (np.add.reduce(rows, axis=1, keepdims=True) / n) - rows / n",
        ["tests/test_losses.py::TestKernelRounding::test_ce_gradient_divides_last"],
    ),
    (
        "bce-gradient-divides-early", "losses.py",
        "grad[:, 0] = (dc.np_sigmoid(z) - y) / y.size",
        "grad[:, 0] = dc.np_sigmoid(z) / y.size - y / y.size",
        ["tests/test_losses.py::TestKernelRounding::test_bce_gradient_divides_last"],
    ),
    (
        "kd-gradient-divides-last", "losses.py",
        "* (t / n))[:, -k:]",
        "* t / n)[:, -k:]",
        ["tests/test_losses.py::TestKernelRounding::test_kd_gradient_scales_by_t_over_n"],
    ),
    # the same two regroupings against the pins alone: their budget of 25
    # leaves windows of 9 replayed rows, and the essentials pin distils for 8 epochs
    (
        "ce-gradient-divides-early-in-the-pins", "losses.py",
        "grad = ((np.exp(logp) if p is None else p) * np.add.reduce(rows, axis=1, keepdims=True) - rows) / n",
        "grad = (np.exp(logp) if p is None else p) * (np.add.reduce(rows, axis=1, keepdims=True) / n) - rows / n",
        ["tests/test_pins.py::test_metrics_json_pinned"],
    ),
    (
        "kd-gradient-divides-last-in-the-pins", "losses.py",
        "* (t / n))[:, -k:]",
        "* t / n)[:, -k:]",
        ["tests/test_pins.py::test_metrics_json_pinned"],
    ),
    (
        "kd-feature-gradient-divides-last", "losses.py",
        "dcos * (-1.0 / cos.size)",
        "dcos / -cos.size",
        ["tests/test_pins.py::test_metrics_json_pinned"],
    ),
    (
        "kd-view-writes-the-trailing-columns", "losses.py",
        "grad[:, :k] = ",
        "grad[:, -k:] = ",
        ["tests/test_losses.py::TestKernelRounding::test_kd_gradient_scales_by_t_over_n"],
    ),
    (
        "adam-eps-unscaled", "trainer.py",
        "b += self.EPS * root2",
        "b += self.EPS",
        ["tests/test_trainer.py::TestAdam::test_three_steps_match_a_textbook_adam"],
    ),
    (
        "step-calls-a-sum-wrapper", "losses.py",
        "np.add.reduce(g, axis=0, out=grads[2 * j + 1])",
        "np.sum(g, axis=0, out=grads[2 * j + 1])",
        ["tests/test_imports.py::test_the_step_path_calls_no_reduction_wrapper"],
    ),
    (
        "margin-value-divides-last", "losses.py",
        "np.add.reduce(np.where(active, gaps, 0.0), axis=None) * (1.0 / n)",
        "np.add.reduce(np.where(active, gaps, 0.0), axis=None) / n",
        ["tests/test_losses.py::TestKernelRounding::test_margin_value_scales_by_one_over_n"],
    ),
    (
        "eval-single-polarity-task-unchecked", "cli.py",
        "if labels.min() == labels.max():",
        "if False:",
        ["tests/test_cli.py::TestEval::test_a_task_of_one_polarity"],
    ),
    # the five boundaries a random sample of source mutants found untested
    (
        "one-row-window-is-an-empty-batch", "model.py",
        "if features.shape[0] == 0:",
        "if features.shape[0] <= 1:",
        ["tests/test_trainer.py::TestRunScenario::test_a_last_window_of_one_row_trains"],
    ),
    (
        "tape-margin-drops-the-lone-rival", "losses.py",
        "if J == 0 or n == 0:",
        "if J <= 1 or n == 0:",
        ["tests/test_losses.py::TestMarginRanking::test_hinge_arithmetic"],
    ),
    (
        "margin-guard-admits-j-equal-to-k", "losses.py",
        "    if J > k - 1:\n",
        "    if J > k:\n",
        ["tests/test_losses.py::TestMarginRanking::test_j_too_large"],
    ),
    (
        "rival-bound-without-a-margin-term", "trainer.py",
        "if self.weights.gamma_m > 0 and self.weights.J > 3:",
        "if self.weights.gamma_m >= 0 and self.weights.J > 3:",
        ["tests/test_trainer.py::TestProfiles::test_the_rival_bound_holds_only_with_a_margin_term"],
    ),
    (
        "zero-temperature-accepted", "losses.py",
        "if self.T <= 0:",
        "if self.T < 0:",
        ["tests/test_trainer.py::TestProfiles::test_a_zero_temperature_is_rejected"],
    ),
    # the learning system, derived from the head and the rule, checked once
    (
        "profile-system-ignores-the-rule", "trainer.py",
        "return MC if self.aggregation is None else MT",
        "return MC",
        ["tests/test_trainer.py::TestProfiles::test_every_builtin_profile_resolves_on_every_system"],
    ),
    (
        "sigmoid-profile-accepts-an-aggregation", "trainer.py",
        "        if self.aggregation is not None and self.head_variant == SIGMOID:\n"
        "            raise ConfigError(\"aggregation rules apply to the multi-task system only\")\n",
        "",
        ["tests/test_trainer.py::TestProfiles::test_an_aggregation_on_a_sigmoid_head_is_rejected"],
    ),
    (
        "run-skips-the-system-binding-check", "trainer.py",
        "    if system != profile.system:\n",
        "    if False:\n",
        ["tests/test_trainer.py::TestRunScenario::test_a_profile_bound_to_another_system_is_rejected_before_training"],
    ),
    (
        "checkpoint-registry-repeats-a-task", "model.py",
        "        if len(set(tasks)) < len(tasks):\n",
        "        if False:\n",
        ["tests/test_model.py::TestCheckpointValidation::test_a_task_held_twice_rejected"],
    ),
    (
        "profile-head-overridable", "trainer.py",
        '{"name", "weights", "head_variant", "aggregation"}',
        '{"name", "weights", "aggregation"}',
        ["tests/test_trainer.py::TestProfiles::test_the_head_is_no_override"],
    ),
    # a checkpoint's integers are JSON integers, and a class key is its index
    # as ``str`` writes it
    (
        "checkpoint-integer-field-takes-a-bool", "model.py",
        "if type(value) is not int:",
        "if not isinstance(value, int):",
        ["tests/test_model.py::TestCheckpointValidation::test_integer_fields_must_be_json_integers"],
    ),
    (
        "checkpoint-integer-field-converted", "model.py",
        "        raise ConfigError(f\"checkpoint field {field}: {value!r} is not an integer\")\n    return value\n",
        "        value = int(value)\n    return value\n",
        ["tests/test_model.py::TestCheckpointValidation::test_integer_fields_must_be_json_integers"],
    ),
    (
        "memory-class-key-any-digits", "memory.py",
        "key.isdecimal() and key == str(int(key))",
        "key.isdigit()",
        ["tests/test_memory.py::TestPayloadValidation::test_class_key_not_in_canonical_decimal"],
    ),
    # the run-directory contract under single-file edits, and the portable
    # level of reproducibility
    (
        "eval-malformed-prediction-row-is-a-runtime-failure", "metrics.py",
        "raise ParseError(messages[np.argmax(checks[:, row])], line=int(kept[row]) + 2)",
        "raise ContractError(messages[np.argmax(checks[:, row])])",
        ["tests/test_cli.py::test_eval_of_a_run_directory_with_one_edited_file_exits_0_or_2"],
    ),
    (
        "kernels-recorded-in-metrics-json", "cli.py",
        'echo = cfg.echo() | {"task_ids": [s.task_id for s in sessions]}',
        'echo = cfg.echo() | {"task_ids": [s.task_id for s in sessions], '
        '"kernels": os.environ.get("NPY_DISABLE_CPU_FEATURES")}',
        ["tests/test_portable.py::test_metrics_and_matrix_hold_on_other_kernels"],
    ),
    # the survivors of a random sample (tests/automutants.py --seed 4 --count 60)
    (
        "tape-margin-on-an-empty-batch", "losses.py",
        "if J == 0 or n == 0:",
        "if J == 0 and n == 0:",
        ["tests/test_losses.py::TestMarginRanking::test_no_rows"],
    ),
    (
        "af-last-needs-three-tasks", "metrics.py",
        '"af_last": af_last(matrix) if n >= 2 else None',
        '"af_last": af_last(matrix) if n >= 3 else None',
        ["tests/test_metrics.py::TestArtifacts::test_compute_metrics_shape"],
    ),
    (
        "herding-bound-subtracts-its-underflow-term", "memory.py",
        "            + c_under * k * (g + r)\n",
        "            - c_under * k * (g + r)\n",
        ["tests/test_memory.py::TestScreenedHerding::test_all_equal_rows_take_the_exact_search"],
    ),
    (
        "small-source-difficulty-moved", "stream.py",
        "_SMALL_DIFFICULTY = 3.5",
        "_SMALL_DIFFICULTY = 4.5",
        ["tests/test_stream.py::TestScenarios::test_hard_mixes_difficulties_and_sample_sizes"],
    ),
    (
        "accuracy-zero-rejected", "metrics.py",
        "if not 0.0 <= value <= 1.0:",
        "if not 0.0 < value <= 1.0:",
        ["tests/test_parsers.py::TestAccuracyMatrixCsv::test_both_bounds_are_accuracies"],
    ),
    (
        "default-test-split-resized", "stream.py",
        '_DEFAULT_COUNTS = {"train": 300, "test": 150}',
        '_DEFAULT_COUNTS = {"train": 300, "test": 151}',
        ["tests/test_stream.py::TestSynthGenerate::test_counts_per_split_and_polarity"],
    ),
    (
        "checkpoint-without-layers-reads-one", "model.py",
        "n_layers = max(len(widths) - 1, 0)",
        "n_layers = max(len(widths) - 1, 1)",
        ["tests/test_model.py::TestCheckpointValidation::test_widths_without_a_layer_rejected"],
    ),
    (
        "step-takes-a-system-again", "losses.py",
        "def loss_and_gradients(\n    step: StepRows,",
        "def loss_and_gradients(\n    system: str,\n    step: StepRows,",
        ["tests/test_imports.py::test_below_the_run_no_function_takes_a_learning_system"],
    ),
    # checkpoint format v3: every check of the one decoder, once per array
    (
        "checkpoint-base64-lenient", "model.py",
        "base64.b64decode(value, validate=True)",
        "base64.b64decode(value)",
        ["tests/test_model.py::TestCheckpointValidation::test_a_character_outside_base64_rejected"],
    ),
    (
        "checkpoint-array-byte-count-unchecked", "model.py",
        "len(raw) != 8 * math.prod(shape)",
        "False",
        ["tests/test_model.py::TestCheckpointValidation::test_wrong_bias_shape_rejected"],
    ),
    (
        "checkpoint-rows-byte-count-unchecked", "model.py",
        "len(raw) % (8 * math.prod(shape[1:])) if rows",
        "False if rows",
        [
            "tests/test_model.py::TestCheckpointValidation::test_memory_rows_checked_against_the_model",
            "tests/test_memory.py::TestPayloadValidation::test_ragged_rows",
        ],
    ),
    (
        "checkpoint-non-finite-accepted", "model.py",
        "    if not np.isfinite(arr).all():\n",
        "    if False:\n",
        [
            "tests/test_model.py::TestCheckpointValidation::test_non_finite_parameters_rejected",
            "tests/test_memory.py::TestPayloadValidation::test_non_finite_rows",
        ],
    ),
    (
        "checkpoint-v2-accepted", "model.py",
        "if found != CHECKPOINT_FORMAT:",
        'if found not in (CHECKPOINT_FORMAT, "cddet-checkpoint-v2"):',
        ["tests/test_model.py::TestCheckpointValidation::test_another_format_rejected"],
    ),
    (
        "checkpoint-arrays-read-only", "model.py",
        'np.frombuffer(raw, dtype="<f8").astype(np.float64)',
        'np.frombuffer(raw, dtype="<f8")',
        ["tests/test_trainer.py::TestSplitRun::test_a_split_run_equals_the_whole_one"],
    ),
    (
        "checkpoint-saves-rows-of-another-width", "model.py",
        "        ExemplarMemory.from_payload(memory, model)  # no row count",
        "        pass  # no row count",
        ["tests/test_model.py::TestCheckpointValidation::test_save_rejects_rows_of_another_width"],
    ),
    (
        "checkpoint-width-one-rejected", "model.py",
        "if any(w < 1 for w in widths):",
        "if any(w < 2 for w in widths):",
        ["tests/test_model.py::TestCheckpointValidation::test_a_width_below_one_rejected"],
    ),
    (
        "checkpoint-width-zero-accepted", "model.py",
        "if any(w < 1 for w in widths):",
        "if any(w < 0 for w in widths):",
        ["tests/test_model.py::TestCheckpointValidation::test_a_width_below_one_rejected"],
    ),
    (
        "memory-class-key-one-past-the-registry", "memory.py",
        "int(key) >= len(model.head.registry)",
        "int(key) > len(model.head.registry)",
        ["tests/test_cli.py::TestCheckpointMemory::test_memory_that_does_not_match_the_model"],
    ),
    # eval checks what it recomputes; two survivors of the last sample in cli
    (
        "eval-ignores-stored-values", "cli.py",
        "if key not in stored or key not in metrics or stored[key] != metrics[key]:",
        "if key not in stored or key not in metrics:",
        ["tests/test_cli.py::TestEval::test_stored_metrics_that_differ_from_their_recomputation"],
    ),
    (
        "seed-grid-rejects-seed-0", "cli.py",
        "if seed < 0:",
        "if seed < 1:",
        ["tests/test_cli.py::TestRun::test_a_seed_grid_may_hold_seed_0"],
    ),
    (
        "config-json-indent-3", "cli.py",
        "json.dump(echo, fh, sort_keys=True, indent=2)",
        "json.dump(echo, fh, sort_keys=True, indent=3)",
        ["tests/test_pins.py"],
    ),
    # the survivors of a random sample (tests/automutants.py --seed 6 --count 40 trainer)
    (
        "default-epochs-seven", "trainer.py",
        "    epochs: int = 6\n",
        "    epochs: int = 7\n",
        ["tests/test_cli.py::TestRun::test_the_default_epochs_are_six"],
    ),
    (
        "sigmoid-accepts-label-smoothing-alone", "trainer.py",
        "(self.label_smooth_eps > 0 or self.mixup_alpha > 0)",
        "(self.label_smooth_eps > 1 or self.mixup_alpha > 0)",
        ["tests/test_trainer.py::TestProfiles::test_a_sigmoid_head_takes_neither_smoothing_nor_mixup"],
    ),
    (
        "sigmoid-accepts-mixup-alone", "trainer.py",
        "(self.label_smooth_eps > 0 or self.mixup_alpha > 0)",
        "(self.label_smooth_eps > 0 or self.mixup_alpha > 1)",
        ["tests/test_trainer.py::TestProfiles::test_a_sigmoid_head_takes_neither_smoothing_nor_mixup"],
    ),
    # one way to add a task: expand on every head
    (
        "expand-appends-rows-on-a-sigmoid-head", "model.py",
        "        if self.variant == SIGMOID:\n            return self.register_task(task_id)\n",
        "",
        ["tests/test_model.py::TestExpansion::test_sigmoid_keeps_one_unit"],
    ),
    # checks an input can reach, each with its exit code and message
    (
        "runtime-failure-exits-2", "cli.py",
        "        return 1\n    return 0\n\n\ndef _usage_error",
        "        return 2\n    return 0\n\n\ndef _usage_error",
        ["tests/test_cli.py::TestRun::test_a_diverging_run_exits_1_naming_its_session_and_epoch"],
    ),
    (
        "seed-fallback-that-is-not-an-integer-ignored", "cli.py",
        '            raise ConfigError(f"CDD_SEED: expected an integer, found {env_seed!r}") from None\n',
        "            pass\n",
        ["tests/test_cli.py::TestChecksBeforeData::test_a_seed_fallback_that_is_not_an_integer"],
    ),
    (
        "affine-bias-check-needs-both-faults", "diffcore.py",
        "if b.data.ndim != 1 or b.shape[0] != k:",
        "if b.data.ndim != 1 and b.shape[0] != k:",
        ["tests/test_diffcore.py::test_each_op_rejects_the_input_its_check_names"],
    ),
    # the battery's printed strength
    (
        "step-check-counts-twice", "verify.py",
        "                checked += 1\n",
        "                checked += 2\n",
        ["tests/test_cli.py::TestVerify::test_battery_passes_and_is_deterministic"],
    ),
    (
        "step-check-samples-four-coordinates", "verify.py",
        "coords: int = 3",
        "coords: int = 4",
        ["tests/test_cli.py::TestVerify::test_battery_passes_and_is_deterministic"],
    ),
]


def copy_tree(dest: Path) -> None:
    """Copy what tier-1 reads into ``dest``: ``src/``, ``tests/``,
    ``perfbench/`` (``tests/test_bench_hooks.py`` imports it) and
    ``pyproject.toml``."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest)


def pytest_status(tree: Path, tests: list[str]) -> int:
    """pytest's exit status on ``tests`` in ``tree``: 0 all passed, 1 some failed."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, capture_output=True, timeout=600).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        named = sorted({test for *_, tests in MUTANTS for test in tests})
        if pytest_status(clean, named) != 0:
            print("the named tests do not pass on the unmutated tree", file=sys.stderr)
            return 1
        survivors = 0
        for i, (name, module, text, replacement, tests) in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{i}"
            copy_tree(tree)
            path = tree / "src" / "cddet" / module
            source = path.read_text(encoding="utf-8")
            if source.count(text) != 1:
                print(f"STALE   {name}: its text occurs {source.count(text)} times in {module}")
                survivors += 1
                continue
            path.write_text(source.replace(text, replacement), encoding="utf-8")
            status = pytest_status(tree, tests)
            killed = status == 1
            survivors += not killed
            print(f"{'KILLED' if killed else 'LIVES':<7} {name} (pytest exit {status}): {' '.join(tests)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
