package rt

import (
	"indexlaunch/internal/core"
	"indexlaunch/internal/domain"
	"indexlaunch/internal/obs"
)

// logical is the whole-launch analysis stage: with VerifyLaunches it runs
// the hybrid safety analysis and decides whether the launch stays compact
// or is demoted to a sequentially-issued task loop (Listing 3's
// else-branch). A replayed launch was verified when it was captured. The
// stage's span covers the dynamic check; it is near-zero when
// VerifyLaunches is off. Caller holds issueMu.
func (r *Runtime) logical(l *launch, il *core.IndexLaunch) {
	useIndex := r.cfg.IndexLaunches
	if useIndex && r.cfg.VerifyLaunches && !r.replaying() {
		t := r.clk.now()
		res := il.Verify(r.cfg.Checks)
		if r.clk.hist {
			r.mx.CheckEval.Observe(r.clk.now() - t)
		}
		r.mx.DynamicCheckEvals.Add(res.DynamicEvaluations)
		if !res.Safe {
			r.mx.Fallbacks.Inc()
			useIndex = false
		}
	}
	if useIndex {
		r.mx.IndexLaunched.Inc()
	} else {
		r.mx.Expanded.Inc()
	}
	l.logicalNS = r.clk.now() - l.t0
	r.clk.done(obs.StageLogical, r.mx.LatLogical, l.tc.Child(tcLogical), 0, 0,
		l.name, l.tag, domain.Point{}, l.t0, l.t0+l.logicalNS)
}
