package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/model"
	"hybriddb/internal/routing"
	"hybriddb/internal/runner"
)

// ParseStrategy resolves a strategy specification — on the command line or
// in an Experiment — to a maker. The maker's label names the strategy in
// tables, CSV and manifests. Accepted forms:
//
//	none              (no load sharing)
//	static            (analytically optimal ship probability, §3.1; label static*)
//	static:P          (fixed ship probability P in [0,1])
//	measured-rt       (§3.2.3)
//	queue-length      (§3.2.4)
//	threshold:T       (queue-length heuristic with utilization threshold T)
//	min-incoming/ql   min-incoming/nis   (§3.2.1)
//	min-average/ql    min-average/nis    (§3.2.2)
//	best              (alias for min-average/nis, the paper's best)
//	adaptive          (static, re-optimized from measured rates every 30 s)
func ParseStrategy(spec string) (runner.Maker, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	switch name {
	case "none":
		return fixed("none", routing.AlwaysLocal{}), nil
	case "static":
		if !hasArg {
			return runner.Maker{Label: "static*", Make: func(cfg hybrid.Config) (routing.Strategy, error) {
				opt, err := model.OptimalShipFraction(cfg.ModelInput(0), 0.01)
				if err != nil {
					return nil, fmt.Errorf("static optimization: %w", err)
				}
				return routing.NewStatic(opt.PShip, cfg.Seed^0x5bd1e995), nil
			}}, nil
		}
		p, err := strconv.ParseFloat(arg, 64)
		if err != nil || p < 0 || p > 1 {
			return runner.Maker{}, fmt.Errorf("experiments: static probability %q", arg)
		}
		return runner.Maker{Label: fmt.Sprintf("static(%.3f)", p), Make: func(cfg hybrid.Config) (routing.Strategy, error) {
			return routing.NewStatic(p, cfg.Seed^0x9e3779b9), nil
		}}, nil
	case "measured-rt":
		return fixed("measured-rt", routing.MeasuredRT{}), nil
	case "queue-length":
		return fixed("queue-length", routing.QueueLength{}), nil
	case "threshold":
		if !hasArg {
			return runner.Maker{}, fmt.Errorf("experiments: threshold requires a value, e.g. threshold:-0.2")
		}
		theta, err := strconv.ParseFloat(arg, 64)
		if err != nil {
			return runner.Maker{}, fmt.Errorf("experiments: threshold %q", arg)
		}
		return fixed(fmt.Sprintf("threshold(%+.1f)", theta), routing.QueueThreshold{Theta: theta}), nil
	case "adaptive":
		return runner.Maker{Label: "adaptive-static", Make: func(cfg hybrid.Config) (routing.Strategy, error) {
			const window = 30 // seconds between re-optimizations
			return routing.NewAdaptiveStatic(cfg.ModelParams(), cfg.PLocal, window, cfg.Seed^0x2545f491)
		}}, nil
	case "best":
		return ParseStrategy("min-average/nis")
	case "min-incoming/ql", "min-incoming/nis", "min-average/ql", "min-average/nis":
		est := routing.FromInSystem
		if strings.HasSuffix(name, "/ql") {
			est = routing.FromQueueLength
		}
		average := strings.HasPrefix(name, "min-average")
		return runner.Maker{Label: name, Make: func(cfg hybrid.Config) (routing.Strategy, error) {
			if average {
				return routing.MinAverage{Params: cfg.ModelParams(), Estimator: est}, nil
			}
			return routing.MinIncoming{Params: cfg.ModelParams(), Estimator: est}, nil
		}}, nil
	default:
		return runner.Maker{}, fmt.Errorf("experiments: unknown strategy %q", spec)
	}
}

// fixed is the maker of a stateless strategy value.
func fixed(label string, s routing.Strategy) runner.Maker {
	return runner.Maker{Label: label, Make: func(hybrid.Config) (routing.Strategy, error) { return s, nil }}
}

// StrategyNames lists the accepted ParseStrategy specifications for help
// text.
func StrategyNames() []string {
	return []string{
		"none", "static", "static:P", "adaptive", "measured-rt",
		"queue-length", "threshold:T", "min-incoming/ql", "min-incoming/nis",
		"min-average/ql", "min-average/nis", "best",
	}
}
