package service

// FollowStore exposes one store-follower tick to the fault table in
// follow_test.go, which drives it without the ticker goroutine.
func (s *Server) FollowStore() func() { return s.followStore() }
