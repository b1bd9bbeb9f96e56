package rt

import (
	"indexlaunch/internal/core"
	"indexlaunch/internal/safety"
)

// logical is the whole-launch analysis stage, run before the launch opens:
// il stays compact unless IndexLaunches is off or VerifyLaunches' hybrid
// safety analysis finds it unsafe, when ExecuteIndex issues it as Listing
// 3's task loop instead. It runs in a replay too: the verdict decides how
// many units the replay issues. Caller holds issueMu.
func (r *Runtime) logical(il *core.IndexLaunch) bool {
	if !r.cfg.IndexLaunches {
		return false
	}
	if r.cfg.VerifyLaunches {
		t := r.clk.now()
		res := il.Verify(safety.Options{})
		r.clk.observe(r.mx.CheckEval, r.clk.now()-t, 1)
		r.mx.DynamicCheckEvals.Add(res.DynamicEvaluations)
		if !res.Safe {
			r.mx.Fallbacks.Inc()
			return false
		}
	}
	r.mx.IndexLaunched.Inc()
	return true
}
