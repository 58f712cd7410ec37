"""The paper's three model families (Section 2).

* **Linear time-invariant models** (:mod:`repro.models.linear`,
  :mod:`repro.models.progressive_linear`) — weighted sums of multi-modal
  attributes, with least-squares fitting and the Section 3.1 progressive
  (contribution-ordered) decomposition.
* **Finite state models** (:mod:`repro.models.fsm`,
  :mod:`repro.models.fsm_runner`, :mod:`repro.models.fsm_distance`) —
  guarded state machines over event streams, with the Figure 1 fire-ants
  machine as the canonical instance and a behavioural FSM distance for
  "slightly different machine" matching.
* **Bayesian network / knowledge models** (:mod:`repro.models.bayes`,
  :mod:`repro.models.bayes_infer`, :mod:`repro.models.bayes_learn`,
  :mod:`repro.models.fuzzy`, :mod:`repro.models.knowledge`) — discrete
  belief networks with variable-elimination inference and CPT learning,
  plus fuzzy rule models for the Figure 3/Figure 4 scenarios.
"""

from repro._lazy import surface

__all__, __getattr__, __dir__ = surface(
    __name__,
    {
        ".base": "AttributeVector Model",
        ".bayes": "BayesianNetwork Variable",
        ".bayes_infer": "VariableElimination",
        ".bayes_learn": "fit_cpts",
        ".bayes_mpe": "most_probable_explanations",
        ".fsm": "FiniteStateMachine State Transition",
        ".fsm_distance": "behavioural_distance structural_distance",
        ".fsm_learn": "learn_fsm runs_from_machine",
        ".fsm_runner": "FSMRun fire_ants_model run_fsm",
        ".fuzzy": (
            "FuzzyAnd FuzzyOr MembershipFunction gaussian_membership "
            "sigmoid_membership trapezoid_membership "
            "triangle_membership"
        ),
        ".knowledge": "FuzzyRule KnowledgeModel RulePredicate",
        ".linear": "LinearModel fit_linear_model hps_risk_model",
        ".progressive_linear": (
            "ProgressiveLinearModel TermContribution "
            "analyze_contributions"
        ),
    },
)
