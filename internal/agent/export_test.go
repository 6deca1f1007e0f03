package agent

// MustRegister is Register that panics on error.
func (p *Platform) MustRegister(name string, h Handler) *Context {
	ctx, err := p.Register(name, h)
	if err != nil {
		panic(err)
	}
	return ctx
}
