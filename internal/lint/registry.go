package lint

// All returns the full fcmavet analyzer suite in stable order. Each
// analyzer is the only gate on its contract; DESIGN.md §12 has the table
// (contract, the behavioural failure it prevents) and the rule an
// analyzer must meet to be here.
func All() []*Analyzer {
	return []*Analyzer{
		RawGoroutine,
		CtxFlow,
		F32Purity,
		FsyncRename,
		HTTPTimeouts,
		ObsNames,
	}
}
