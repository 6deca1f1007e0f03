package grid

// Faults returns a copy of the installed fault spec, or nil.
func (g *Grid) Faults() *FaultSpec {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.faults == nil {
		return nil
	}
	spec := *g.faults
	spec.Nodes = append([]string(nil), g.faults.Nodes...)
	return &spec
}
