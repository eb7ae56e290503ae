"""hornnet: compile Horn-clause knowledge into trainable networks, train them,
extract threshold rules back out, and benchmark against augmented baselines."""

__version__ = "0.1.0"

from .rulelang import (  # noqa: F401
    HornClause,
    Literal,
    ParseError,
    RuleError,
    RuleSet,
    evaluate_boolean,
    format_rules,
    parse_rules,
    random_ruleset,
    rewrite_disjuncts,
)
from .datakit import (  # noqa: F401
    CLASSES,
    Dataset,
    SynthConfig,
    generate_synthetic,
    kfold_split,
    load_csv,
    save_csv,
)
from .tensornet import (  # noqa: F401
    Layer,
    Network,
    TrainConfig,
    TrainReport,
    build_mlp,
    build_network,
    forward,
    load_network,
    numerical_gradient_check,
    predict_labels,
    predict_proba,
    save_network,
    train,
)
from .kbann import (  # noqa: F401
    CompileConfig,
    ExtractedRule,
    ExtractedRuleSet,
    compile_rules,
    extract_rules,
    format_extracted_rules,
    permutation_importance,
    verify_compiled_logic,
)
from .augment import (  # noqa: F401
    SmoteConfig,
    balance_with_autoencoder,
    smote,
)
from .explain import (  # noqa: F401
    Explanation,
    FeatureStats,
    GlobalExplanation,
    global_explain,
    lime_explain,
)
from .evalharness import (  # noqa: F401
    ExperimentReport,
    Metrics,
    compute_metrics,
    correlation_table,
    run_comparison,
)
