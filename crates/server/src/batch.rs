//! Cost model of one scheduler iteration on the shared accelerator.
//!
//! The latency substrate (`specasr_models::LatencyModel`) prices a forward
//! pass as `base_ms + per_token_ms · tokens`.  Continuous batching exploits
//! exactly that shape:
//!
//! * **Grouped verification** — the drafted sequences/trees of every session
//!   in the batch are concatenated into *one* target forward pass (each
//!   sequence attends only to its own prefix, the batched generalisation of
//!   the tree attention mask), so the pass base cost is paid once instead of
//!   once per session;
//! * **Parallel drafting** — the draft models of all sessions run
//!   concurrently on the accelerator, so the tick's draft wall time is the
//!   slowest session's draft phase, not the sum.
//!
//! [`TickCost`] computes both, and keeps the sequential-equivalent cost so
//! the scheduler can report how much device time batching saved.

use specasr_models::LatencyModel;

/// Wall-clock cost of one scheduler tick, with its sequential equivalent.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TickCost {
    /// Wall time of the batched tick: slowest draft phase + one grouped
    /// verification pass.
    pub wall_ms: f64,
    /// What the same work would have cost run one session after another.
    pub sequential_ms: f64,
}

impl TickCost {
    /// Costs one tick.
    ///
    /// `draft_ms` holds each batched session's draft-phase device time for
    /// this round; `verify_widths` holds the token width each session's
    /// verification pass must process (from
    /// [`specasr::DraftedRound::verify_tokens`]).
    pub fn of_round(draft_ms: &[f64], verify_widths: &[usize], target: &LatencyModel) -> TickCost {
        assert_eq!(
            draft_ms.len(),
            verify_widths.len(),
            "one draft time and one verify width per batched session"
        );
        TickCost::of_rounds(
            draft_ms.iter().copied().zip(verify_widths.iter().copied()),
            target,
        )
    }

    /// Costs the `(draft_ms, verify_width)` rounds one tick verifies, like
    /// [`TickCost::of_round`], without gathering them into slices first.
    pub(crate) fn of_rounds(
        rounds: impl Iterator<Item = (f64, usize)> + Clone,
        target: &LatencyModel,
    ) -> TickCost {
        if rounds.clone().next().is_none() {
            return TickCost::default();
        }
        let slowest_draft = rounds
            .clone()
            .map(|(draft, _)| draft)
            .fold(0.0f64, f64::max);
        let width = rounds.clone().map(|(_, width)| width).sum();
        let wall_ms = slowest_draft + target.forward_pass_ms(width);
        let sequential_ms = rounds.clone().map(|(draft, _)| draft).sum::<f64>()
            + rounds
                .map(|(_, width)| target.forward_pass_ms(width))
                .sum::<f64>();
        TickCost {
            wall_ms,
            sequential_ms,
        }
    }
}

/// Cost of verifying all sessions' drafts in one grouped target pass: the
/// base cost is paid once, the per-token cost for every drafted token.
pub fn grouped_verify_ms(target: &LatencyModel, verify_widths: &[usize]) -> f64 {
    if verify_widths.is_empty() {
        return 0.0;
    }
    target.forward_pass_ms(verify_widths.iter().sum())
}

/// One tick's verification schedule against an in-flight target backend:
/// which sessions verify in which cross-session batch (wave), when each
/// wave is submitted, and the modeled completion of the last wave.
///
/// Filled by [`plan_verify_waves`]; the scheduler submits the waves it
/// verifies this tick (see [`plan_verify_waves`]), each as one
/// [`specasr_models::BackendBatch`] at its submit offset, and advances its
/// wall clock to the last of their completions.  The waves are contiguous runs of one
/// session order, so a plan is that order plus each wave's end, and the
/// planner's tables live in the plan too: a caller that keeps one plan and
/// re-plans it every tick stops allocating once the plan has covered its
/// largest tick.
#[derive(Debug, Clone, Default)]
pub struct VerifyPlan {
    /// Session indices in draft-completion order (ties broken by index, so
    /// the schedule is deterministic): every wave's sessions, wave after
    /// wave.
    order: Vec<usize>,
    /// Where each wave ends in `order`.
    wave_ends: Vec<usize>,
    submit_offsets_ms: Vec<f64>,
    makespan_ms: f64,
    /// Prefix token widths over `order`.
    width_prefix: Vec<usize>,
    /// `dp[w * (n + 1) + i]`: earliest completion of the first `i` ordered
    /// sessions in exactly `w + 1` waves; `cut` at the same index is where
    /// the last of those waves starts.
    dp: Vec<f64>,
    cut: Vec<usize>,
}

impl VerifyPlan {
    /// An empty plan.
    pub fn new() -> Self {
        VerifyPlan::default()
    }

    /// Number of waves.
    pub fn wave_count(&self) -> usize {
        self.wave_ends.len()
    }

    /// The session indices of wave `wave`, in draft-completion order.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no wave `wave`.
    pub fn wave(&self, wave: usize) -> &[usize] {
        let start = match wave {
            0 => 0,
            _ => self.wave_ends[wave - 1],
        };
        &self.order[start..self.wave_ends[wave]]
    }

    /// The waves in submission order.
    pub fn waves(&self) -> impl ExactSizeIterator<Item = &[usize]> + '_ {
        (0..self.wave_count()).map(|wave| self.wave(wave))
    }

    /// Submission time of each wave — the moment its slowest member
    /// finished drafting, in the caller's reference frame.
    pub fn submit_offsets_ms(&self) -> &[f64] {
        &self.submit_offsets_ms
    }

    /// Modeled completion of the last wave, in the caller's reference frame.
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_ms
    }
}

/// Plans up to `max_waves` verification waves into `plan`, over sessions
/// whose draft phases complete at `draft_done_ms`, against a serialised
/// device with per-batch `dispatch_overhead_ms` (the
/// [`specasr_models::InFlightSimBackend`] timeline model) that is busy until
/// `device_free_ms` with work from previous ticks.  The scheduler passes
/// absolute wall times; any shared reference frame works.
///
/// Sessions are ordered by draft completion (ties by index) and partitioned
/// into contiguous cohorts; each cohort's batch is submitted the moment its
/// slowest member finishes drafting, pays `dispatch_overhead_ms`, then
/// queues behind both the device backlog and every earlier wave.  An early
/// cohort's verification therefore executes in flight while the straggling
/// draft phases still run, and only the stragglers' (smaller) batch remains
/// on the critical path.  The partition is chosen by a dynamic program
/// minimising the modeled completion of the last wave: minimising each
/// prefix's completion is optimal because a later wave's start is monotone
/// in it.  Fewer waves are preferred whenever splitting is not strictly
/// faster (an extra wave pays the pass base cost again), so the single
/// grouped batch — wait for the slowest draft, then verify everyone — is
/// the plan whenever overlap cannot win, and `max_waves = 1` forces it.
///
/// The [`crate::Scheduler`] submits a plan's first cohort, and each later
/// one up to the last that holds a budgeted request's first round; the
/// cohorts after it keep their drafted rounds, and the next tick plans them
/// again, already drafted, beside the early sessions' next rounds.
///
/// Whatever `plan` held before is replaced; its buffers keep their
/// capacity.
///
/// # Panics
///
/// Panics if the slice lengths differ or `max_waves` is zero.
pub fn plan_verify_waves(
    plan: &mut VerifyPlan,
    draft_done_ms: &[f64],
    verify_widths: &[usize],
    target: &LatencyModel,
    dispatch_overhead_ms: f64,
    max_waves: usize,
    device_free_ms: f64,
) {
    assert_eq!(
        draft_done_ms.len(),
        verify_widths.len(),
        "one draft time and one verify width per batched session"
    );
    assert!(max_waves >= 1, "a plan needs at least one wave");
    let n = draft_done_ms.len();
    let VerifyPlan {
        order,
        wave_ends,
        submit_offsets_ms,
        makespan_ms,
        width_prefix,
        dp,
        cut,
    } = plan;
    order.clear();
    wave_ends.clear();
    submit_offsets_ms.clear();
    *makespan_ms = 0.0;
    if n == 0 {
        return;
    }
    order.extend(0..n);
    // Indices break every tie, so the order is total and an unstable sort
    // (which never allocates) gives the one order a stable sort would.
    order.sort_unstable_by(|&a, &b| {
        draft_done_ms[a]
            .partial_cmp(&draft_done_ms[b])
            .expect("draft times are finite")
            .then(a.cmp(&b))
    });
    width_prefix.clear();
    width_prefix.push(0usize);
    for &index in order.iter() {
        width_prefix.push(width_prefix[width_prefix.len() - 1] + verify_widths[index]);
    }
    // One wave over the sorted range `j..i`, entering a device free at
    // `free`: submitted when its slowest draft lands, started after dispatch
    // overhead and whatever still occupies the device.
    let (order, width_prefix) = (&*order, &*width_prefix);
    let wave_done = |free: f64, j: usize, i: usize| -> f64 {
        let submit = draft_done_ms[order[i - 1]];
        let start = (submit + dispatch_overhead_ms).max(free);
        start + target.forward_pass_ms(width_prefix[i] - width_prefix[j])
    };
    let wave_cap = max_waves.min(n);
    // One flat table each, whatever the wave cap.
    let row = n + 1;
    dp.clear();
    dp.resize(wave_cap * row, f64::INFINITY);
    cut.clear();
    cut.resize(wave_cap * row, 0);
    for (i, slot) in dp[..row].iter_mut().enumerate().skip(1) {
        *slot = wave_done(device_free_ms, 0, i);
    }
    for w in 1..wave_cap {
        for i in (w + 1)..=n {
            for j in w..i {
                let candidate = wave_done(dp[(w - 1) * row + j], j, i);
                if candidate < dp[w * row + i] - 1e-9 {
                    dp[w * row + i] = candidate;
                    cut[w * row + i] = j;
                }
            }
        }
    }
    // Prefer fewer waves unless more are strictly faster.
    let mut best_w = 0;
    for w in 1..wave_cap {
        if dp[w * row + n] < dp[best_w * row + n] - 1e-9 {
            best_w = w;
        }
    }
    // Reconstruct the cohorts' ends back to front.  Room for `wave_cap`
    // waves, so a re-plan at the same cap or lower never grows them.
    wave_ends.reserve(wave_cap);
    submit_offsets_ms.reserve(wave_cap);
    wave_ends.resize(best_w + 1, 0);
    submit_offsets_ms.resize(best_w + 1, 0.0);
    let mut to = n;
    for w in (0..=best_w).rev() {
        wave_ends[w] = to;
        submit_offsets_ms[w] = draft_done_ms[order[to - 1]];
        to = if w == 0 { 0 } else { cut[w * row + to] };
    }
    *makespan_ms = dp[best_w * row + n];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target() -> LatencyModel {
        LatencyModel::new(20.0, 0.5, 0.1)
    }

    /// A fresh plan against `target()`.
    fn planned(
        draft_done_ms: &[f64],
        verify_widths: &[usize],
        dispatch_overhead_ms: f64,
        max_waves: usize,
        device_free_ms: f64,
    ) -> VerifyPlan {
        let mut plan = VerifyPlan::new();
        plan_verify_waves(
            &mut plan,
            draft_done_ms,
            verify_widths,
            &target(),
            dispatch_overhead_ms,
            max_waves,
            device_free_ms,
        );
        plan
    }

    #[test]
    fn grouped_verification_pays_the_base_cost_once() {
        let widths = [8usize, 4, 1];
        let grouped = grouped_verify_ms(&target(), &widths);
        let sequential: f64 = widths.iter().map(|&w| target().forward_pass_ms(w)).sum();
        assert!((grouped - (20.0 + 0.5 * 13.0)).abs() < 1e-12);
        assert!(grouped < sequential);
        assert_eq!(grouped_verify_ms(&target(), &[]), 0.0);
    }

    #[test]
    fn tick_wall_time_is_slowest_draft_plus_one_pass() {
        let cost = TickCost::of_round(&[3.0, 7.0, 5.0], &[8, 8, 8], &target());
        assert!((cost.wall_ms - (7.0 + 20.0 + 0.5 * 24.0)).abs() < 1e-12);
        assert!(cost.sequential_ms > cost.wall_ms);
    }

    #[test]
    fn single_session_ticks_save_nothing() {
        let cost = TickCost::of_round(&[4.0], &[8], &target());
        assert!((cost.wall_ms - cost.sequential_ms).abs() < 1e-12);
    }

    #[test]
    fn empty_ticks_cost_nothing() {
        let cost = TickCost::of_round(&[], &[], &target());
        assert_eq!(cost.wall_ms, 0.0);
        assert_eq!(cost.sequential_ms, 0.0);
    }

    #[test]
    #[should_panic(expected = "one draft time and one verify width")]
    fn mismatched_lengths_panic() {
        TickCost::of_round(&[1.0], &[], &target());
    }

    #[test]
    fn uniform_drafts_plan_one_grouped_batch() {
        // With no straggler there is nothing to overlap: splitting would pay
        // the pass base cost twice for no gain.
        let plan = planned(&[5.0, 5.0, 5.0], &[8, 8, 8], 0.0, 2, 0.0);
        assert_eq!(plan.wave_count(), 1);
        assert_eq!(plan.wave(0).len(), 3);
        assert!((plan.submit_offsets_ms()[0] - 5.0).abs() < 1e-12);
        let analytic = TickCost::of_round(&[5.0, 5.0, 5.0], &[8, 8, 8], &target());
        assert!((plan.makespan_ms() - analytic.wall_ms).abs() < 1e-12);
    }

    #[test]
    fn a_long_straggler_draft_hides_the_early_wave() {
        // Three fast drafters (3 ms) and one 100 ms straggler: the fast
        // sessions' verification (20 + 0.5·24 = 32 ms) fully executes while
        // the straggler drafts, leaving only its own pass on the critical
        // path.
        let draft_ms = [3.0, 3.0, 100.0, 3.0];
        let widths = [8usize, 8, 8, 8];
        let plan = planned(&draft_ms, &widths, 0.0, 2, 0.0);
        assert_eq!(plan.wave_count(), 2);
        assert_eq!(plan.wave(0), [0, 1, 3]);
        assert_eq!(plan.wave(1), [2]);
        assert!((plan.submit_offsets_ms()[0] - 3.0).abs() < 1e-12);
        assert!((plan.submit_offsets_ms()[1] - 100.0).abs() < 1e-12);
        // Makespan: straggler draft + its own verification pass.
        assert!((plan.makespan_ms() - (100.0 + 20.0 + 0.5 * 8.0)).abs() < 1e-12);
        let analytic = TickCost::of_round(&draft_ms, &widths, &target());
        assert!(
            plan.makespan_ms() < analytic.wall_ms,
            "overlap must beat the wait-for-all schedule"
        );
    }

    #[test]
    fn the_plan_never_exceeds_the_single_batch_makespan() {
        let cases: [(&[f64], &[usize]); 4] = [
            (&[1.0], &[4]),
            (&[10.0, 12.0], &[8, 2]),
            (&[1.0, 2.0, 3.0, 50.0, 4.0], &[8, 8, 8, 8, 8]),
            (&[0.0, 0.0, 90.0], &[24, 1, 3]),
        ];
        for (draft_ms, widths) in cases {
            for overhead in [0.0, 2.5] {
                let plan = planned(draft_ms, widths, overhead, 2, 0.0);
                let d_max = draft_ms.iter().copied().fold(0.0f64, f64::max);
                let single = d_max + overhead + grouped_verify_ms(&target(), widths);
                assert!(plan.makespan_ms() <= single + 1e-9);
                assert!(plan.makespan_ms() >= d_max, "verification follows drafting");
                let scheduled: usize = plan.waves().map(<[usize]>::len).sum();
                assert_eq!(scheduled, draft_ms.len(), "every session is verified");
            }
        }
    }

    #[test]
    fn small_straggler_gaps_keep_the_single_grouped_batch() {
        // The gap between the slowest and the second-slowest draft (4 ms) is
        // far smaller than an extra pass base cost (20 ms): splitting would
        // push the early wave's completion past the straggler and pay the
        // base twice, so the plan must keep one grouped batch.
        let plan = planned(&[1.0, 1.0, 5.0], &[8, 8, 8], 0.0, 2, 0.0);
        assert_eq!(plan.wave_count(), 1);
        assert!((plan.makespan_ms() - (5.0 + 20.0 + 0.5 * 24.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_ticks_plan_nothing() {
        let plan = planned(&[], &[], 0.0, 2, 0.0);
        assert_eq!(plan.wave_count(), 0);
        assert_eq!(plan.makespan_ms(), 0.0);
    }

    #[test]
    fn three_stragglers_earn_three_waves() {
        // Draft completions spaced far wider than a pass base cost: each
        // cohort's verification hides completely under the next straggler's
        // draft, so the planner splits three ways where a two-wave cap has
        // to group the first two cohorts.
        let done = [3.0, 3.0, 100.0, 140.0];
        let widths = [40usize, 40, 40, 8];
        let plan = planned(&done, &widths, 0.0, 4, 0.0);
        assert_eq!(plan.wave_count(), 3);
        assert_eq!(plan.wave(0), [0, 1]);
        assert_eq!(plan.wave(1), [2]);
        assert_eq!(plan.wave(2), [3]);
        assert_eq!(plan.submit_offsets_ms(), [3.0, 100.0, 140.0]);
        // Only the last straggler's own pass remains on the critical path.
        assert!((plan.makespan_ms() - (140.0 + 20.0 + 0.5 * 8.0)).abs() < 1e-12);
        let two = planned(&done, &widths, 0.0, 2, 0.0);
        assert!(plan.makespan_ms() < two.makespan_ms() - 1.0);
    }

    #[test]
    fn a_single_wave_cap_forces_the_grouped_batch() {
        let done = [3.0, 3.0, 100.0, 3.0];
        let widths = [8usize, 8, 8, 8];
        let plan = planned(&done, &widths, 0.0, 1, 0.0);
        assert_eq!(plan.wave_count(), 1);
        assert!((plan.makespan_ms() - (100.0 + 20.0 + 0.5 * 32.0)).abs() < 1e-12);
    }

    #[test]
    fn the_device_backlog_delays_every_wave() {
        // The device is still busy with the previous tick's waves until
        // t = 500: no split can win (waves would just queue), and the
        // makespan is backlog + one grouped pass.
        let done = [3.0, 3.0, 100.0, 3.0];
        let widths = [8usize, 8, 8, 8];
        let plan = planned(&done, &widths, 0.0, 4, 500.0);
        assert_eq!(plan.wave_count(), 1);
        assert!((plan.makespan_ms() - (500.0 + 20.0 + 0.5 * 32.0)).abs() < 1e-12);
    }

    #[test]
    fn deeper_wave_caps_never_cost_wall_clock() {
        let done = [1.0, 2.0, 3.0, 50.0, 120.0, 121.0];
        let widths = [8usize, 4, 8, 2, 8, 1];
        let mut previous = f64::INFINITY;
        // One plan, re-planned at every cap.
        let mut plan = VerifyPlan::new();
        for cap in 1..=6 {
            plan_verify_waves(&mut plan, &done, &widths, &target(), 1.5, cap, 10.0);
            assert!(plan.makespan_ms() <= previous + 1e-9);
            assert!(plan.wave_count() <= cap);
            let scheduled: usize = plan.waves().map(<[usize]>::len).sum();
            assert_eq!(scheduled, done.len());
            previous = plan.makespan_ms();
        }
    }
}
