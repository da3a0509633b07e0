//! Activation functions with their derivatives.

use serde::{Deserialize, Serialize};

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// f(x) = x — used on the Q-value output layer.
    Identity,
    /// f(x) = max(0, x) — the paper's hidden-layer activation; cheap to
    /// implement as a lookup/compare in hardware (Table VII's `T_av`).
    Relu,
    /// f(x) = tanh(x).
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Apply the activation elementwise in place.
    pub fn apply(self, xs: &mut [f32]) {
        match self {
            Activation::Identity => {}
            Activation::Relu => {
                for x in xs {
                    if *x < 0.0 {
                        *x = 0.0;
                    }
                }
            }
            Activation::Tanh => {
                for x in xs {
                    *x = x.tanh();
                }
            }
            Activation::Sigmoid => {
                for x in xs {
                    *x = 1.0 / (1.0 + (-*x).exp());
                }
            }
        }
    }

    /// Derivative evaluated from the *activated* output `y = f(x)`.
    ///
    /// All supported activations admit this form (ReLU's derivative at the
    /// kink is taken as 0), which lets backprop avoid storing
    /// pre-activations.
    #[inline]
    pub fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut xs = [-1.0, 0.0, 2.5];
        Activation::Relu.apply(&mut xs);
        assert_eq!(xs, [0.0, 0.0, 2.5]);
    }

    #[test]
    fn identity_is_noop() {
        let mut xs = [-1.0, 3.0];
        Activation::Identity.apply(&mut xs);
        assert_eq!(xs, [-1.0, 3.0]);
    }

    #[test]
    fn derivatives_match_finite_difference() {
        let eps = 1e-3f32;
        for act in [
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Identity,
        ] {
            for &x in &[-1.5f32, -0.2, 0.3, 1.7] {
                let mut a = [x];
                act.apply(&mut a);
                let mut lo = [x - eps];
                let mut hi = [x + eps];
                act.apply(&mut lo);
                act.apply(&mut hi);
                let fd = (hi[0] - lo[0]) / (2.0 * eps);
                let an = act.derivative_from_output(a[0]);
                assert!(
                    (fd - an).abs() < 1e-2,
                    "{act:?} at {x}: fd={fd} analytic={an}"
                );
            }
        }
    }

    #[test]
    fn sigmoid_range() {
        let mut xs = [-100.0, 0.0, 100.0];
        Activation::Sigmoid.apply(&mut xs);
        assert!(xs[0] < 1e-6);
        assert!((xs[1] - 0.5).abs() < 1e-6);
        assert!(xs[2] > 1.0 - 1e-6);
    }
}
