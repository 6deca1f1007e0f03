package ontology

// Equal reports value equality.
func (v Value) Equal(w Value) bool {
	if v.Kind != w.Kind {
		return false
	}
	switch v.Kind {
	case KindString, KindRef:
		return v.S == w.S
	case KindNumber:
		return v.N == w.N
	case KindBool:
		return v.B == w.B
	case KindList:
		if len(v.L) != len(w.L) {
			return false
		}
		for i := range v.L {
			if v.L[i] != w.L[i] {
				return false
			}
		}
		return true
	}
	return false
}

// Shell returns a copy of the KB containing only the class definitions (an
// "ontology shell" in the paper's terms).
func (kb *KB) Shell() *KB {
	out := NewKB()
	for _, c := range kb.Classes() {
		cc := *c
		cc.Slots = append([]Slot(nil), c.Slots...)
		out.MustAddClass(&cc)
	}
	return out
}
