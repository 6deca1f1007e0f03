package workflow

// BindItems searches for an injective assignment of distinct items to the
// service's input parameters such that every parameter condition holds. It
// returns the chosen binding (formal name -> item) and whether one exists.
// Distinctness matters: PSF needs two different 3D models (C7 binds B and C
// to different items).
//
// The search is deterministic: items are tried in list order, so the same
// list always yields the same binding.
func (s *Service) BindItems(items []*DataItem) (map[string]*DataItem, bool) {
	b := getBinder(s.Inputs, items)
	defer b.release()
	if !b.bind(0) {
		return nil, false
	}
	chosen := make(map[string]*DataItem, len(s.Inputs))
	for i, it := range b.picked {
		chosen[s.Inputs[i].Name] = it
	}
	return chosen, true
}

// Bind is BindItems over the state's items, in sorted-name order.
func (s *Service) Bind(st *State) (map[string]*DataItem, bool) {
	return s.BindItems(st.items)
}

// Has reports whether the named item exists.
func (s *State) Has(name string) bool { return s.Get(name) != nil }

// Len returns the number of items.
func (s *State) Len() int { return len(s.items) }
