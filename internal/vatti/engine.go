package vatti

import (
	"context"

	"polyclip/internal/engine"
	"polyclip/internal/geom"
)

// clipEngine adapts the sequential scanbeam sweep to the engine registry:
// the differential reference, and the only engine exposing trapezoid output.
type clipEngine struct{}

func (clipEngine) Name() string { return "vatti" }

func (clipEngine) Capabilities() engine.Capabilities {
	return engine.Capabilities{
		Rules:        engine.AllRules(),
		Trapezoids:   true,
		SlabHostable: true,
	}
}

func (e clipEngine) Clip(ctx context.Context, a, b geom.Polygon, op engine.Op, opt engine.Options) (engine.Result, error) {
	if err := engine.CheckRule(e, opt.Rule); err != nil {
		return engine.Result{}, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return engine.Result{}, err
		}
	}
	return engine.Result{Polygon: ClipRule(a, b, op, opt.Rule)}, nil
}

func (clipEngine) Trapezoids(a, b geom.Polygon, op engine.Op) []engine.Trapezoid {
	return Trapezoids(a, b, op)
}

func init() { engine.Register(clipEngine{}) }
