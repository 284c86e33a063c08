"""Wave-domain DFT fitting and energy-only 2D direction finding toolkit."""

__version__ = "0.1.0"

from .geometry import (
    SimGeometry,
    PropagationSet,
    SteeringVector,
    DftTarget,
    FeasibilityReport,
    linear_to_grid,
    build_propagation_matrices,
    steering_vector,
    dft_matrix,
    check_feasibility,
)
from .wavemodel import (
    PhaseStack,
    ZerothLayerConfig,
    DB_FLOOR,
    forward_response,
    optimal_scale,
    fitting_loss,
    antenna_field,
    synthesize_received,
    random_stack,
    cn_noise,
)
from .trainer import (
    TrainConfig,
    TrainReport,
    TrainingDiverged,
    layer_inputs,
    gradient,
    finite_diff_gradient,
    train,
    train_restarts,
)
from .estimator import (
    ProtocolConfig,
    SnapshotLattice,
    EnergyMap,
    DoaEstimate,
    zeroth_layer_phase,
    zeroth_layer_config,
    collect_snapshots,
    peak_index,
    electrical_angles,
    visible_angles,
    estimate_from_map,
    angular_spectrum,
    wrapped_angle_error,
    steering_for,
)
from .analysis import (
    DegenerateField,
    BoundInputs,
    q_function,
    clean_field,
    mse_bound,
    quantization_floor,
)
from .experiments import (
    SourceTruth,
    McConfig,
    McPoint,
    SweepCell,
    ReceiverCell,
    effective_rho,
    sample_source,
    digital_baseline,
    paired_trial,
    run_monte_carlo,
    ablation_sweep,
    receiver_study,
    fit_reference,
)
