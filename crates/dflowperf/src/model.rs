//! The analytical model for finite database resources (§5, Equations
//! 1–6).
//!
//! Variables (per the paper): `Th` throughput (instances/second),
//! `Work` units of processing per instance, `Lmpl` average per-instance
//! multiprogramming level, `Impl` instances in process, `Gmpl` global
//! multiprogramming level, `UnitTime` seconds per unit of processing,
//! `Db` the empirical load curve. The equations in stable state:
//!
//! ```text
//! (1) UnitTime       = Db(Gmpl)
//! (2) Impl           = Th × TimeInSeconds            (Little's law, instances)
//! (3) TimeInSeconds  = TimeInUnits × UnitTime
//! (4) TimeInUnits    = Work / Lmpl
//! (5) Gmpl           = Impl × Lmpl
//!                    = Th × TimeInUnits × UnitTime × Lmpl
//!                    = Th × Work × UnitTime
//! (6) UnitTime       = Db(Th × Work × UnitTime)
//! ```
//!
//! Equation (6) is a one-dimensional fixed point in `UnitTime`. Because
//! `Db` is non-decreasing, the map `u ↦ Db(Th·Work·u)` is monotone; a
//! solution exists iff the curve crosses the identity before the
//! database saturates. Two applications (the paper's "Prescriptions for
//! Tuning"):
//!
//! 1. **max work bound** — the largest `Work` for which (6) has a
//!    solution at a target `Th`;
//! 2. **program choice** — combine the guideline map `minT(Work)` with
//!    `UnitTime(Work)` to predict `TimeInSeconds = minT(W) × UnitTime(W)`
//!    and pick the `W` (and its strategy) minimizing it (Figure 9(b)).
//!
//! The model's `TimeInSeconds` in Equation (3) is the *execution*
//! component of response time; the real server's runtime telemetry
//! measures the same decomposition empirically. A run on an
//! `EngineServer` embeds a
//! `decisionflow::telemetry::TelemetrySnapshot` in its
//! [`ServerSideStats`](crate::workload::ServerSideStats): the `execute`
//! stage histogram is the measured counterpart of Equation (3), and
//! `queue_wait` is the backlog term the infinite-resource model omits —
//! comparing their percentiles against the `e2e` histogram shows
//! directly whether a saturating run is execution-bound (UnitTime
//! inflation, Equation 1) or queueing-bound.

use crate::dbfunc::DbFunction;

/// Solver outcome for Equation (6).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UnitTimeSolution {
    /// A stable operating point exists: UnitTime in milliseconds.
    Stable(f64),
    /// No fixed point: the offered load saturates the database.
    Saturated,
}

impl UnitTimeSolution {
    /// The stable unit time, if any.
    pub fn stable_ms(self) -> Option<f64> {
        match self {
            UnitTimeSolution::Stable(ms) => Some(ms),
            UnitTimeSolution::Saturated => None,
        }
    }
}

/// Solve Equation (6): `UnitTime = Db(Th · Work · UnitTime)` for the
/// given throughput (instances/second) and per-instance work (units).
///
/// `th_per_sec × work` is the offered load in units/second; multiplied
/// by the unit time in *seconds* it yields Gmpl.
pub fn solve_unit_time(db: &DbFunction, th_per_sec: f64, work: f64) -> UnitTimeSolution {
    assert!(th_per_sec >= 0.0 && work >= 0.0, "negative load");
    let load = th_per_sec * work; // units per second
    if load == 0.0 {
        return UnitTimeSolution::Stable(db.unit_time_ms(0.0));
    }
    // g(u) = Db(load · u / 1000) − u   (u in ms). g(0) = Db(0) > 0.
    // Monotone Db ⇒ g has at most one sign change. Search for an upper
    // bracket, then bisect.
    let g = |u: f64| db.unit_time_ms(load * u / 1000.0) - u;
    let mut hi = db.unit_time_ms(0.0).max(1.0);
    let mut found = false;
    for _ in 0..64 {
        if g(hi) < 0.0 {
            found = true;
            break;
        }
        hi *= 2.0;
        if hi > 1e9 {
            break;
        }
    }
    if !found {
        return UnitTimeSolution::Saturated;
    }
    let mut lo = 0.0f64;
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if g(mid) >= 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    UnitTimeSolution::Stable(0.5 * (lo + hi))
}

/// Equation (6) with a burstiness correction (this repo's extension).
///
/// The plain fixed point evaluates `Db` at the *time-averaged* Gmpl,
/// but the units of one instance execute together: a unit's perceived
/// multiprogramming level is the background average **plus its own
/// instance's siblings**. Modelling the system as compound-Poisson
/// (instances ~ Poisson, each contributing `Lmpl` concurrent units),
/// the size-biased population seen by a unit is `E[G²]/E[G] = Gmpl +
/// Lmpl`. The calibration workload (`Lmpl = 1`) already embeds the
/// "+1" of a unit seeing itself, so the corrected fixed point is
///
/// ```text
/// UnitTime = Db(Th · Work · UnitTime + (Lmpl − 1))
/// ```
///
/// which degenerates to Equation (6) exactly when `Lmpl = 1`
/// (sequential programs). `Lmpl = Work / TimeInUnits` per Equation (4).
pub fn solve_unit_time_with_lmpl(
    db: &DbFunction,
    th_per_sec: f64,
    work: f64,
    lmpl: f64,
) -> UnitTimeSolution {
    assert!(lmpl >= 1.0, "Lmpl is at least one task in flight");
    let load = th_per_sec * work;
    let shift = lmpl - 1.0;
    let g = |u: f64| db.unit_time_ms(load * u / 1000.0 + shift) - u;
    let mut hi = db.unit_time_ms(shift).max(1.0);
    let mut found = false;
    for _ in 0..64 {
        if g(hi) < 0.0 {
            found = true;
            break;
        }
        hi *= 2.0;
        if hi > 1e9 {
            break;
        }
    }
    if !found {
        return UnitTimeSolution::Saturated;
    }
    let mut lo = 0.0f64;
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if g(mid) >= 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    UnitTimeSolution::Stable(0.5 * (lo + hi))
}

/// The paper's first prescription: the maximum Work (units per
/// instance) the database can afford at throughput `th_per_sec` —
/// the largest `W` for which Equation (6) still has a solution.
pub fn max_work_for_throughput(db: &DbFunction, th_per_sec: f64, limit: u64) -> u64 {
    let mut lo = 0u64; // always feasible (zero work)
    let mut hi = limit;
    if solve_unit_time(db, th_per_sec, hi as f64)
        .stable_ms()
        .is_some()
    {
        return hi;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        match solve_unit_time(db, th_per_sec, mid as f64) {
            UnitTimeSolution::Stable(_) => lo = mid,
            UnitTimeSolution::Saturated => hi = mid,
        }
    }
    lo
}

/// Predicted per-instance response time (Equation 3): `TimeInUnits ×
/// UnitTime`, in milliseconds. `None` when the load saturates.
pub fn predict_response_ms(
    db: &DbFunction,
    th_per_sec: f64,
    work: f64,
    time_in_units: f64,
) -> Option<f64> {
    solve_unit_time(db, th_per_sec, work)
        .stable_ms()
        .map(|u| u * time_in_units)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdb::DbPoint;

    /// Db: flat 10ms up to gmpl 4, then +1ms per extra gmpl.
    fn db() -> DbFunction {
        DbFunction::from_points(&[
            DbPoint {
                gmpl: 1.0,
                unit_time_ms: 10.0,
            },
            DbPoint {
                gmpl: 4.0,
                unit_time_ms: 10.0,
            },
            DbPoint {
                gmpl: 24.0,
                unit_time_ms: 30.0,
            },
        ])
    }

    #[test]
    fn zero_load_returns_base_unit_time() {
        let s = solve_unit_time(&db(), 0.0, 100.0);
        assert_eq!(s, UnitTimeSolution::Stable(10.0));
        let s = solve_unit_time(&db(), 10.0, 0.0);
        assert_eq!(s, UnitTimeSolution::Stable(10.0));
    }

    #[test]
    fn light_load_sits_on_flat_region() {
        // load = 2 inst/s × 100 units = 200 units/s; u = 10ms ⇒ gmpl = 2
        // — inside the flat region, so u = 10ms is the fixed point.
        let s = solve_unit_time(&db(), 2.0, 100.0);
        let u = s.stable_ms().unwrap();
        assert!((u - 10.0).abs() < 1e-6, "u = {u}");
    }

    #[test]
    fn moderate_load_climbs_the_curve() {
        // load = 10 × 60 = 600 units/s. Fixed point on the sloped
        // region Db(g) = g + 6: u = 0.6u + 6 ⇒ u = 15, gmpl = 9.
        let u = solve_unit_time(&db(), 10.0, 60.0).stable_ms().unwrap();
        assert!((u - 15.0).abs() < 1e-4, "u = {u}");
        let g = 10.0 * 60.0 * u / 1000.0;
        let expect = db().unit_time_ms(g);
        assert!(
            (u - expect).abs() < 1e-6,
            "fixed point property: {u} vs {expect}"
        );
        assert!(u > 10.0, "queueing must raise unit time");
    }

    #[test]
    fn heavy_load_saturates() {
        // Db slope is 1 ms per gmpl; offered load 2000 units/s means
        // the map u ↦ Db(2u) has slope 2 > 1 everywhere: no crossing.
        let s = solve_unit_time(&db(), 20.0, 100.0);
        assert_eq!(s, UnitTimeSolution::Saturated);
        assert_eq!(s.stable_ms(), None);
    }

    #[test]
    fn max_work_is_monotone_in_throughput() {
        let d = db();
        let w10 = max_work_for_throughput(&d, 10.0, 10_000);
        let w20 = max_work_for_throughput(&d, 20.0, 10_000);
        let w40 = max_work_for_throughput(&d, 40.0, 10_000);
        assert!(w10 >= w20 && w20 >= w40, "{w10} {w20} {w40}");
        assert!(w40 > 0);
        // Feasibility boundary is tight: w10 is feasible, w10+1 is not.
        assert!(solve_unit_time(&d, 10.0, w10 as f64).stable_ms().is_some());
        assert!(solve_unit_time(&d, 10.0, (w10 + 1) as f64)
            .stable_ms()
            .is_none());
    }

    #[test]
    fn max_work_hits_limit_when_everything_feasible() {
        let flat = DbFunction::from_points(&[DbPoint {
            gmpl: 1.0,
            unit_time_ms: 10.0,
        }]);
        // Flat Db never saturates.
        assert_eq!(max_work_for_throughput(&flat, 100.0, 500), 500);
    }

    #[test]
    fn lmpl_correction_degenerates_at_one() {
        let d = db();
        let plain = solve_unit_time(&d, 10.0, 60.0).stable_ms().unwrap();
        let corr = solve_unit_time_with_lmpl(&d, 10.0, 60.0, 1.0)
            .stable_ms()
            .unwrap();
        assert!((plain - corr).abs() < 1e-6);
    }

    #[test]
    fn lmpl_correction_raises_unit_time() {
        let d = db();
        let plain = solve_unit_time(&d, 10.0, 60.0).stable_ms().unwrap();
        let corr = solve_unit_time_with_lmpl(&d, 10.0, 60.0, 5.0)
            .stable_ms()
            .unwrap();
        assert!(corr > plain, "bursty instances see more contention");
    }

    #[test]
    fn predicted_response_combines_unit_time_and_units() {
        let d = db();
        let r = predict_response_ms(&d, 2.0, 100.0, 30.0).unwrap();
        // unit time 10ms × 30 units = 300ms.
        assert!((r - 300.0).abs() < 1e-3);
        assert!(predict_response_ms(&d, 20.0, 100.0, 30.0).is_none());
    }
}
