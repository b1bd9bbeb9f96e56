package rt

// TemplateRuns returns, per field, how many intervals the template stored
// under trace id writes and reads: what a replay of it enters the version
// map with. Fields come in no particular order.
func TemplateRuns(r *Runtime, id uint64) (writes, reads []int) {
	r.issueMu.Lock()
	defer r.issueMu.Unlock()
	t := r.templates[id]
	if t == nil {
		return nil, nil
	}
	for _, ivs := range t.writes {
		writes = append(writes, len(ivs))
	}
	for _, ivs := range t.reads {
		reads = append(reads, len(ivs))
	}
	return writes, reads
}
