package runtime

// QueuedCommands reports how many commands wait in the session's queue, so
// a test can hold a tick until its command is queued.
func (s *Session) QueuedCommands() int { return len(s.cmds) }
