package plantree

// Conc returns a concurrent controller over the children.
func Conc(children ...*Node) *Node { return &Node{Kind: KindConcurrent, Children: children} }

// Sel returns a selective controller over the children.
func Sel(children ...*Node) *Node { return &Node{Kind: KindSelective, Children: children} }

// Iter returns an iterative controller over the children.
func Iter(children ...*Node) *Node { return &Node{Kind: KindIterative, Children: children} }
