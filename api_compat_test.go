package mpq_test

import (
	"context"

	"mpq"
)

// This file is the apidiff-style compatibility guard: it pins the
// exported surface at exact signatures. If a symbol is removed or its
// signature changes, the package no longer compiles and CI fails —
// before any caller outside this repository finds out.
var (
	// Construction and model types.
	_ func([]mpq.QueryTable) (*mpq.Query, error) = mpq.NewQuery
	_ func([]mpq.QueryTable) *mpq.Query          = mpq.MustNewQuery
	_ func() mpq.CostModel                       = mpq.DefaultCostModel
	_ func(mpq.Space, int) int                   = mpq.MaxWorkers

	// Cluster model and TCP workers — stable surface.
	_ func() mpq.ClusterModel              = mpq.DefaultClusterModel
	_ func(string) (*mpq.TCPWorker, error) = mpq.ListenWorker

	// Workloads, serialization, execution — stable surface.
	_ func(mpq.WorkloadParams, int64) (*mpq.Catalog, *mpq.Query, error) = mpq.GenerateWorkload
	_ func(int, mpq.Shape) mpq.WorkloadParams                           = mpq.NewWorkloadParams
	_ func() *mpq.Schema                                                = mpq.TPCHSchema
	_ func() *mpq.Schema                                                = mpq.TPCDSSchema
	_ func(*mpq.Schema, float64) (*mpq.Catalog, *mpq.Query, error)      = mpq.SchemaWorkload
	_ func(*mpq.Query) []byte                                           = mpq.EncodeQuery
	_ func([]byte) (*mpq.Query, error)                                  = mpq.DecodeQuery
	_ func(*mpq.Plan) []byte                                            = mpq.EncodePlan
	_ func([]byte) (*mpq.Plan, error)                                   = mpq.DecodePlan
	_ func([]*mpq.Plan) []*mpq.Plan                                     = mpq.ExactFrontier
	_ func(*mpq.Plan, *mpq.Query, mpq.CostModel) error                  = mpq.ValidatePlan

	// Parametric query optimization — stable surface.
	_ func(*mpq.Query, mpq.Space, int, float64) ([]*mpq.Plan, error) = mpq.OptimizeParametric
	_ func(*mpq.Plan, float64) float64                               = mpq.ParametricCostAt
	_ func([]*mpq.Plan, float64) (*mpq.Plan, error)                  = mpq.ParametricBest
	_ func([]*mpq.Plan) ([]float64, error)                           = mpq.ParametricBreakpoints

	// The new unified Engine surface, pinned from day one.
	_ func(...mpq.EngineOption) *mpq.SerialEngine                 = mpq.NewSerialEngine
	_ func(...mpq.EngineOption) *mpq.InProcessEngine              = mpq.NewInProcessEngine
	_ func(...mpq.EngineOption) *mpq.SimEngine                    = mpq.NewSimEngine
	_ func([]string, ...mpq.EngineOption) (*mpq.TCPEngine, error) = mpq.NewTCPEngine
	_ func(int) mpq.EngineOption                                  = mpq.WithParallelism
	_ func(mpq.ClusterModel) mpq.EngineOption                     = mpq.WithClusterModel
	_ func(mpq.ClusterFaults) mpq.EngineOption                    = mpq.WithClusterFaults
	_ func(mpq.MasterOptions) mpq.EngineOption                    = mpq.WithMasterOptions
	_ func(mpq.CostModel) mpq.EngineOption                        = mpq.WithCostModel
)

// The Engine interface shape itself is part of the contract.
var _ interface {
	Optimize(context.Context, *mpq.Query, mpq.JobSpec) (*mpq.Answer, error)
	OptimizeBatch(context.Context, []mpq.Job) ([]*mpq.Answer, error)
} = mpq.Engine(nil)
