use crate::solution::OdeSolution;
use crate::system::OdeSystem;

/// A numerical integrator for autonomous ODE systems.
pub trait OdeIntegrator {
    /// Integrates `system` from state `y0` at time `t0` to time `t1`,
    /// recording the solution at every accepted step.
    ///
    /// # Panics
    ///
    /// Panics if `t1 < t0`.
    fn integrate<const D: usize, S: OdeSystem<D>>(
        &self,
        system: &S,
        y0: [f64; D],
        t0: f64,
        t1: f64,
    ) -> OdeSolution<D>;
}

/// The classical fixed-step fourth-order Runge–Kutta method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rk4 {
    step: f64,
}

impl Rk4 {
    /// Creates an integrator with the given step size.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not a positive finite number.
    pub fn new(step: f64) -> Self {
        assert!(step.is_finite() && step > 0.0, "step must be positive");
        Rk4 { step }
    }

    /// The configured step size.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// One classical RK4 step of length `h` from state `y`, without
    /// recording a solution. Exposed so external drivers (e.g. the engine's
    /// ODE backend, which interleaves stop-condition checks with stepping)
    /// share this tableau instead of duplicating it.
    pub fn single_step<const D: usize, S: OdeSystem<D>>(
        system: &S,
        y: [f64; D],
        h: f64,
    ) -> [f64; D] {
        let k1 = system.derivative(&y);
        let k2 = system.derivative(&add(y, scale(k1, h / 2.0)));
        let k3 = system.derivative(&add(y, scale(k2, h / 2.0)));
        let k4 = system.derivative(&add(y, scale(k3, h)));
        let mut out = y;
        for i in 0..D {
            out[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        out
    }
}

impl OdeIntegrator for Rk4 {
    fn integrate<const D: usize, S: OdeSystem<D>>(
        &self,
        system: &S,
        y0: [f64; D],
        t0: f64,
        t1: f64,
    ) -> OdeSolution<D> {
        assert!(t1 >= t0, "integration interval must be forward in time");
        let mut solution = OdeSolution::new();
        let mut t = t0;
        let mut y = y0;
        solution.push(t, y);
        while t < t1 {
            let h = self.step.min(t1 - t);
            y = Rk4::single_step(system, y, h);
            t += h;
            solution.push(t, y);
        }
        solution
    }
}

/// The adaptive Runge–Kutta–Fehlberg 4(5) method with step-size control.
///
/// Integration starts at step `10⁻²` and keeps every step within
/// `[10⁻¹⁰, 1]`; a step at the minimum is accepted whatever its error
/// estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rkf45 {
    tolerance: f64,
}

impl Rkf45 {
    const INITIAL_STEP: f64 = 1e-2;
    const MIN_STEP: f64 = 1e-10;
    const MAX_STEP: f64 = 1.0;

    /// Creates an adaptive integrator with the given local error tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not a positive finite number.
    pub fn new(tolerance: f64) -> Self {
        assert!(
            tolerance.is_finite() && tolerance > 0.0,
            "tolerance must be positive"
        );
        Rkf45 { tolerance }
    }

    /// The configured tolerance.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// One Fehlberg step: returns the 5th-order estimate and the local error
    /// estimate.
    fn rkf_step<const D: usize, S: OdeSystem<D>>(
        system: &S,
        y: [f64; D],
        h: f64,
    ) -> ([f64; D], f64) {
        // Fehlberg coefficients.
        let k1 = system.derivative(&y);
        let k2 = system.derivative(&add(y, scale(k1, h / 4.0)));
        let k3 = system.derivative(&add(
            y,
            add(scale(k1, 3.0 * h / 32.0), scale(k2, 9.0 * h / 32.0)),
        ));
        let k4 = system.derivative(&add(
            y,
            add(
                add(
                    scale(k1, 1932.0 * h / 2197.0),
                    scale(k2, -7200.0 * h / 2197.0),
                ),
                scale(k3, 7296.0 * h / 2197.0),
            ),
        ));
        let k5 = system.derivative(&add(
            y,
            add(
                add(scale(k1, 439.0 * h / 216.0), scale(k2, -8.0 * h)),
                add(
                    scale(k3, 3680.0 * h / 513.0),
                    scale(k4, -845.0 * h / 4104.0),
                ),
            ),
        ));
        let k6 = system.derivative(&add(
            y,
            add(
                add(scale(k1, -8.0 * h / 27.0), scale(k2, 2.0 * h)),
                add(
                    add(
                        scale(k3, -3544.0 * h / 2565.0),
                        scale(k4, 1859.0 * h / 4104.0),
                    ),
                    scale(k5, -11.0 * h / 40.0),
                ),
            ),
        ));

        let mut order5 = y;
        let mut error = 0.0f64;
        for i in 0..D {
            let y5 = y[i]
                + h * (16.0 / 135.0 * k1[i] + 6656.0 / 12825.0 * k3[i] + 28561.0 / 56430.0 * k4[i]
                    - 9.0 / 50.0 * k5[i]
                    + 2.0 / 55.0 * k6[i]);
            let y4 = y[i]
                + h * (25.0 / 216.0 * k1[i] + 1408.0 / 2565.0 * k3[i] + 2197.0 / 4104.0 * k4[i]
                    - 1.0 / 5.0 * k5[i]);
            order5[i] = y5;
            error = error.max((y5 - y4).abs());
        }
        (order5, error)
    }
}

impl OdeIntegrator for Rkf45 {
    fn integrate<const D: usize, S: OdeSystem<D>>(
        &self,
        system: &S,
        y0: [f64; D],
        t0: f64,
        t1: f64,
    ) -> OdeSolution<D> {
        assert!(t1 >= t0, "integration interval must be forward in time");
        let mut solution = OdeSolution::new();
        let mut t = t0;
        let mut y = y0;
        let mut h = Rkf45::INITIAL_STEP;
        solution.push(t, y);
        while t < t1 {
            h = h.min(t1 - t).min(Rkf45::MAX_STEP);
            let (candidate, error) = Rkf45::rkf_step(system, y, h);
            if error <= self.tolerance || h <= Rkf45::MIN_STEP {
                // Accept the step.
                t += h;
                y = candidate;
                solution.push(t, y);
            }
            // Standard step-size update with safety factor, clamped to a
            // factor-4 change per step.
            let scale_factor = if error > 0.0 {
                (0.9 * (self.tolerance / error).powf(0.2)).clamp(0.25, 4.0)
            } else {
                4.0
            };
            h = (h * scale_factor).clamp(Rkf45::MIN_STEP, Rkf45::MAX_STEP);
        }
        solution
    }
}

fn add<const D: usize>(a: [f64; D], b: [f64; D]) -> [f64; D] {
    let mut out = a;
    for i in 0..D {
        out[i] += b[i];
    }
    out
}

fn scale<const D: usize>(a: [f64; D], s: f64) -> [f64; D] {
    let mut out = a;
    for v in out.iter_mut() {
        *v *= s;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// dy/dt = -y, solution y(t) = y0 e^{-t}.
    #[derive(Debug)]
    struct Decay;
    impl OdeSystem<1> for Decay {
        fn derivative(&self, y: &[f64; 1]) -> [f64; 1] {
            [-y[0]]
        }
    }

    /// Harmonic oscillator, solution (cos t, -sin t) from (1, 0).
    #[derive(Debug)]
    struct Harmonic;
    impl OdeSystem<2> for Harmonic {
        fn derivative(&self, y: &[f64; 2]) -> [f64; 2] {
            [y[1], -y[0]]
        }
    }

    /// Logistic growth dy/dt = y(1 - y), solution with y(0)=0.1 approaches 1.
    #[derive(Debug)]
    struct Logistic;
    impl OdeSystem<1> for Logistic {
        fn derivative(&self, y: &[f64; 1]) -> [f64; 1] {
            [y[0] * (1.0 - y[0])]
        }
    }

    #[test]
    fn rk4_matches_exponential_decay() {
        let solution = Rk4::new(0.01).integrate(&Decay, [1.0], 0.0, 5.0);
        let expected = (-5.0f64).exp();
        assert!((solution.last_state()[0] - expected).abs() < 1e-8);
        assert!((solution.last_time() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rk4_has_fourth_order_convergence() {
        // Halving the step should reduce the error by about 2^4 = 16.
        let error = |h: f64| {
            let solution = Rk4::new(h).integrate(&Decay, [1.0], 0.0, 2.0);
            (solution.last_state()[0] - (-2.0f64).exp()).abs()
        };
        let e1 = error(0.1);
        let e2 = error(0.05);
        let ratio = e1 / e2;
        assert!(
            ratio > 10.0 && ratio < 25.0,
            "convergence ratio {ratio} not ≈ 16"
        );
    }

    #[test]
    fn rk4_conserves_harmonic_oscillator_energy() {
        let solution = Rk4::new(0.001).integrate(&Harmonic, [1.0, 0.0], 0.0, 20.0);
        let [x, v] = solution.last_state();
        let energy = x * x + v * v;
        assert!((energy - 1.0).abs() < 1e-6, "energy drifted to {energy}");
        assert!((x - (20.0f64).cos()).abs() < 1e-5);
    }

    #[test]
    fn rkf45_matches_exponential_decay() {
        let solution = Rkf45::new(1e-9).integrate(&Decay, [1.0], 0.0, 5.0);
        assert!((solution.last_state()[0] - (-5.0f64).exp()).abs() < 1e-6);
    }

    #[test]
    fn rkf45_takes_fewer_steps_than_fixed_rk4_at_same_accuracy() {
        let rk4 = Rk4::new(0.001).integrate(&Logistic, [0.1], 0.0, 20.0);
        let rkf = Rkf45::new(1e-8).integrate(&Logistic, [0.1], 0.0, 20.0);
        assert!((rk4.last_state()[0] - 1.0).abs() < 1e-6);
        assert!((rkf.last_state()[0] - 1.0).abs() < 1e-5);
        assert!(
            rkf.len() < rk4.len() / 2,
            "adaptive method took {} steps vs {}",
            rkf.len(),
            rk4.len()
        );
    }

    #[test]
    fn integrating_zero_length_interval_returns_initial_state() {
        let solution = Rk4::new(0.1).integrate(&Decay, [3.0], 1.0, 1.0);
        assert_eq!(solution.len(), 1);
        assert_eq!(solution.last_state(), [3.0]);
    }

    #[test]
    #[should_panic(expected = "forward in time")]
    fn backward_interval_panics() {
        let _ = Rk4::new(0.1).integrate(&Decay, [1.0], 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn rk4_rejects_bad_step() {
        let _ = Rk4::new(0.0);
    }

    #[test]
    #[should_panic(expected = "tolerance must be positive")]
    fn rkf_rejects_bad_tolerance() {
        let _ = Rkf45::new(-1.0);
    }
}
