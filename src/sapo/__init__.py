"""Linear-chain structured classification with search-based probabilistic
online learning (SAPO) and exact-inference / large-margin baselines."""

from .dataio import (
    Corpus,
    FormatError,
    ModelFileError,
    generate_synthetic_hmm,
    load_model,
    read_conll,
    save_model,
    synthetic_hmm_params,
    write_conll,
)
from .evaluation import EvalReport, chunk_f1, extract_chunks, token_accuracy, w_complexity
from .features import (
    ExtractionError,
    FeatureIndex,
    FeatureTemplate,
    Model,
    Sequence,
    Tagset,
    TemplateError,
    build_feature_index,
    build_model,
    compile_templates,
    extract_features,
    score_sequence,
)
from .inference import (
    DeltaReport,
    Marginals,
    delta_diagnostic,
    forward_backward,
    forward_logz,
    objective_value,
    sequence_log_prob,
    topn_distribution,
)
from .lattice import (
    Lattice,
    NBestList,
    astar_nbest,
    backward_viterbi,
    beam_nbest,
    build_lattice,
    enumerate_all,
    path_score,
    viterbi,
)
from .training import (
    ALGORITHMS,
    ConfigError,
    CurvePoint,
    NonFiniteError,
    TrainConfig,
    TrainCurve,
    UpdateTerm,
    WeightState,
    crf_stochastic_gradient,
    run_epoch,
    sapo_update_term,
    train,
    train_crf_sgd,
    train_mira,
    train_mira_nbest,
    train_perceptron,
    train_sapo,
)

__version__ = "0.1.0"
