//! The physics a resident world has stepped, kept to be replayed.
//!
//! [`Environment::step`] is a pure function of the environment's bits and
//! the tick length, and a resident world (E26) starts every home from the
//! same room, so home after home it steps the same rooms. A
//! [`Trajectory`] keeps one recorded step per tick index of a home — the
//! room before and after, the bands after, and whether the room before was
//! the previous entry's room after — and serves a step whose room it holds
//! bit for bit instead of stepping it again (DESIGN.md §6, "A resident
//! world never steps the same physics twice").

use iotdev::env::Environment;

/// One recorded physics step. The trajectory hands steps out only
/// behind `&`, so `chained` stays what [`Trajectory::record`] made it.
pub(crate) struct Step {
    pre: Environment,
    /// The room after the step.
    pub(crate) post: Environment,
    /// `post.bands()`.
    pub(crate) bands: (u8, bool, bool),
    /// `pre` holds the previous entry's `post` bit for bit, so a replay
    /// that reached the previous entry continues here without comparing.
    chained: bool,
}

/// Recorded physics steps by tick index.
#[derive(Default)]
pub(crate) struct Trajectory {
    steps: Vec<Step>,
}

impl Trajectory {
    /// Make room for every tick index below `ticks`. The run loop calls
    /// this when it starts and knows its end, so recording never grows the
    /// buffer inside a tick; an index past the room is stepped unrecorded,
    /// and so is every index of a run too long to reserve for.
    pub(crate) fn reserve(&mut self, ticks: u64) {
        let ticks = usize::try_from(ticks).unwrap_or(usize::MAX);
        if ticks > self.steps.capacity() {
            // Stepping never needs the room: a refused reservation only
            // leaves those ticks to be stepped again by the next home.
            let _ = self.steps.try_reserve_exact(ticks - self.steps.len());
        }
    }

    /// Step `env` by `dt` as the `index`-th tick of a home: the recorded
    /// step if `env` is its room before, bit for bit, and otherwise
    /// [`Environment::step`], recorded where the buffer has the room.
    pub(crate) fn step(&mut self, index: u64, env: &mut Environment, dt: f64) {
        let index = index as usize;
        if let Some(step) = self.steps.get(index).filter(|s| s.pre.same_bits(env)) {
            env.clone_from(&step.post);
            return;
        }
        let pre = env.clone();
        env.step(dt);
        self.record(index, pre, env);
    }

    /// Keep `pre → post` as entry `index`, keeping every entry's `chained`
    /// true exactly when its room before is its predecessor's room after.
    fn record(&mut self, index: usize, pre: Environment, post: &Environment) {
        let chained = index
            .checked_sub(1)
            .and_then(|i| self.steps.get(i))
            .is_some_and(|prev| prev.post.same_bits(&pre));
        let step = Step { pre, post: post.clone(), bands: post.bands(), chained };
        if index < self.steps.len() {
            self.steps[index] = step;
            if let Some(next) = self.steps.get_mut(index + 1) {
                next.chained = next.pre.same_bits(post);
            }
        } else if index == self.steps.len() && index < self.steps.capacity() {
            self.steps.push(step);
        }
    }

    /// The recorded steps that continue `env` from tick `index`: the
    /// entry whose room before is `env` bit for bit, then each chained
    /// successor. Each one's room after is what stepping would give.
    pub(crate) fn replay<'a>(
        &'a self,
        index: u64,
        env: &Environment,
    ) -> impl Iterator<Item = &'a Step> + 'a {
        let index = index as usize;
        let start = match self.steps.get(index) {
            Some(step) if step.pre.same_bits(env) => index,
            _ => self.steps.len(),
        };
        let mut steps = self.steps[start..].iter();
        steps.next().into_iter().chain(steps.take_while(|s| s.chained))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: f64 = 0.1;

    /// A warming room whose oven runs unattended: every float moves.
    fn room() -> Environment {
        Environment { occupied: false, oven_duty: 1.0, ambient_c: 35.0, ..Environment::new() }
    }

    fn stepped(mut env: Environment, ticks: usize) -> Vec<Environment> {
        (0..ticks)
            .map(|_| {
                env.step(DT);
                env.clone()
            })
            .collect()
    }

    #[test]
    fn a_recorded_step_replays_to_the_same_bits() {
        let mut t = Trajectory::default();
        t.reserve(64);
        let want = stepped(room(), 64);
        for round in 0..2 {
            let mut env = room();
            for (i, want) in want.iter().enumerate() {
                t.step(i as u64, &mut env, DT);
                assert!(env.same_bits(want), "round {round}, tick {i}");
            }
        }
        let replayed: Vec<_> = t.replay(0, &room()).map(|s| s.post.clone()).collect();
        assert_eq!(replayed.len(), 64);
        assert!(replayed.iter().zip(&want).all(|(a, b)| a.same_bits(b)));
    }

    #[test]
    fn replay_needs_the_first_room_and_stops_where_the_chain_breaks() {
        let mut t = Trajectory::default();
        t.reserve(16);
        let mut env = room();
        for i in 0..16 {
            t.step(i, &mut env, DT);
        }
        // Another room at tick 0 replays nothing.
        let warmer = Environment { temperature_c: 22.0, ..room() };
        assert_eq!(t.replay(0, &warmer).count(), 0);
        // A different room stepped at tick 8 replaces entry 8, and entry 9
        // no longer follows it: a replay from tick 5 stops at 8.
        let mut other = Environment { window_open: true, ..room() };
        t.step(8, &mut other, DT);
        let mut at5 = room();
        for _ in 0..5 {
            at5.step(DT);
        }
        assert_eq!(t.replay(5, &at5).count(), 3);
        // Stepping the original room at 8 again repairs the chain.
        let mut at8 = at5.clone();
        for _ in 5..8 {
            at8.step(DT);
        }
        t.step(8, &mut at8, DT);
        assert_eq!(t.replay(5, &at5).count(), 11);
    }

    #[test]
    fn nothing_is_recorded_past_the_reserved_room() {
        let mut t = Trajectory::default();
        let mut env = room();
        for i in 0..4 {
            t.step(i, &mut env, DT);
        }
        assert_eq!(t.replay(0, &room()).count(), 0, "an unreserved trajectory records nothing");
        t.reserve(2);
        let mut env = room();
        for i in 0..4 {
            t.step(i, &mut env, DT);
        }
        assert!(env.same_bits(&stepped(room(), 4)[3]));
        assert_eq!(t.replay(0, &room()).count(), t.steps.capacity().min(4));
        // A run too long to reserve for is stepped, not refused.
        t.reserve(u64::MAX);
        let mut env = room();
        for i in 0..8 {
            t.step(i, &mut env, DT);
        }
        assert!(env.same_bits(&stepped(room(), 8)[7]));
    }
}
