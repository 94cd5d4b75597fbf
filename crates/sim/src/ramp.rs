//! Output-ramp shaping rules shared by the simulation engines.
//!
//! Both the HALOTIS engine ([`CompiledCircuit`](crate::CompiledCircuit))
//! and the classical baseline ([`classical`](crate::classical)) need the
//! same two small pieces of waveform bookkeeping.  They used to be duplicated inline in each engine;
//! this module is the single home for both.

use halotis_core::{Edge, LogicLevel, Time, TimeDelta};

/// The direction of a change from `from` to `to`, coercing changes that
/// involve [`LogicLevel::Unknown`] endpoints toward the defined target
/// level.
///
/// Returns `None` only when the target itself is unknown — such changes
/// carry no drawable edge and the engines skip recording them.
///
/// # Example
///
/// ```
/// use halotis_core::{Edge, LogicLevel};
/// use halotis_sim::ramp::edge_toward;
///
/// assert_eq!(edge_toward(LogicLevel::Low, LogicLevel::High), Some(Edge::Rise));
/// assert_eq!(edge_toward(LogicLevel::Unknown, LogicLevel::Low), Some(Edge::Fall));
/// assert_eq!(edge_toward(LogicLevel::High, LogicLevel::Unknown), None);
/// ```
pub fn edge_toward(from: LogicLevel, to: LogicLevel) -> Option<Edge> {
    Edge::between(from, to).or(match to {
        LogicLevel::High => Some(Edge::Rise),
        LogicLevel::Low => Some(Edge::Fall),
        LogicLevel::Unknown => None,
    })
}

/// Computes the start instant of an output ramp triggered at `event_time`.
///
/// The propagation delay is measured to the half-swing point of the output
/// ramp, so the ramp itself starts half an output slew earlier (clamped to
/// the triggering event for causality).  One further constraint keeps the
/// net waveform well formed: a heavily degraded transition cannot start
/// before the gate's previous output transition did — it can only cut it
/// short — so the start is nudged to `previous_start + 1 fs` when it would
/// otherwise land at or before `previous_start`.
///
/// # Example
///
/// ```
/// use halotis_core::{Time, TimeDelta};
/// use halotis_sim::ramp::ramp_start;
///
/// let event = Time::from_ns(1.0);
/// // Delay 300 ps, slew 200 ps: the ramp starts 100 ps before the
/// // half-swing point at 1.3 ns.
/// let start = ramp_start(event, TimeDelta::from_ps(300.0), TimeDelta::from_ps(200.0), None);
/// assert_eq!(start, Time::from_ns(1.2));
/// // A previous output ramp at the same instant pushes the start 1 fs late.
/// let nudged = ramp_start(event, TimeDelta::from_ps(300.0), TimeDelta::from_ps(200.0), Some(start));
/// assert_eq!(nudged, start + TimeDelta::from_fs(1));
/// ```
pub fn ramp_start(
    event_time: Time,
    delay: TimeDelta,
    output_slew: TimeDelta,
    previous_start: Option<Time>,
) -> Time {
    let half_slew = output_slew / 2;
    let mut start = if delay > half_slew {
        event_time + delay - half_slew
    } else {
        event_time
    };
    if let Some(previous) = previous_start {
        if start <= previous {
            start = previous + TimeDelta::from_fs(1);
        }
    }
    start
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_toward_covers_all_defined_changes() {
        assert_eq!(
            edge_toward(LogicLevel::Low, LogicLevel::High),
            Some(Edge::Rise)
        );
        assert_eq!(
            edge_toward(LogicLevel::High, LogicLevel::Low),
            Some(Edge::Fall)
        );
        assert_eq!(
            edge_toward(LogicLevel::Unknown, LogicLevel::High),
            Some(Edge::Rise)
        );
        assert_eq!(
            edge_toward(LogicLevel::Unknown, LogicLevel::Low),
            Some(Edge::Fall)
        );
        assert_eq!(edge_toward(LogicLevel::Low, LogicLevel::Unknown), None);
        assert_eq!(edge_toward(LogicLevel::High, LogicLevel::Unknown), None);
    }

    #[test]
    fn causality_clamps_short_delays_to_the_event() {
        // Delay smaller than half the slew: the ramp cannot start before the
        // event that caused it.
        let event = Time::from_ns(2.0);
        let start = ramp_start(
            event,
            TimeDelta::from_ps(50.0),
            TimeDelta::from_ps(400.0),
            None,
        );
        assert_eq!(start, event);
    }

    #[test]
    fn monotonicity_nudge_applies_only_when_needed() {
        let event = Time::from_ns(1.0);
        let delay = TimeDelta::from_ps(500.0);
        let slew = TimeDelta::from_ps(200.0);
        let free = ramp_start(event, delay, slew, None);
        // An earlier previous output leaves the start untouched.
        assert_eq!(
            ramp_start(event, delay, slew, Some(free - TimeDelta::from_ps(10.0))),
            free
        );
        // A later previous output pushes the start just past it.
        let late_previous = free + TimeDelta::from_ps(30.0);
        assert_eq!(
            ramp_start(event, delay, slew, Some(late_previous)),
            late_previous + TimeDelta::from_fs(1)
        );
    }
}
