package dpml

import (
	"dpml/internal/apps/dnn"
	"dpml/internal/apps/hpcg"
	"dpml/internal/apps/miniamr"
)

// Application kernels with the communication signatures of the paper's
// two evaluation workloads (Section 6.5, 6.6).
type (
	// HPCGConfig sizes a conjugate-gradient run (DDOT-dominated tiny
	// allreduces).
	HPCGConfig = hpcg.Config
	// HPCGResult reports DDOT and total time plus convergence.
	HPCGResult = hpcg.Result
	// MiniAMRConfig sizes a mesh-refinement run (medium/large
	// allreduces).
	MiniAMRConfig = miniamr.Config
	// DNNConfig sizes a data-parallel training run (gradient
	// averaging, optionally bucketed).
	DNNConfig = dnn.Config
	// DNNResult reports per-step and communication time.
	DNNResult = dnn.Result
)

var (
	// RunHPCG executes the CG kernel on an engine's world.
	RunHPCG = hpcg.Run
	// RunMiniAMR executes the refinement kernel on an engine's world.
	RunMiniAMR = miniamr.Run
	// RunDNN executes the training kernel on an engine's world.
	RunDNN = dnn.Run
	// ResNet50ish returns a CNN-like layer mix for RunDNN.
	ResNet50ish = dnn.ResNet50ish
)
