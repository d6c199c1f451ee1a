package net

// watchInbox collects the messages delivered to ep's mailbox for instance,
// in delivery order, through a task that watches the mailbox and drains it
// on every push — the Watch + TryRecv + Await idiom protocol loops use.
// Messages buffered before the task's first step are drained by that step,
// so none is lost. The channel holds more messages than any test here sends,
// so the draining task never blocks the dispatcher's thread it runs on. The
// task exits when the process crashes or the network closes.
func watchInbox(ep *Endpoint, instance string) <-chan Message {
	ch := make(chan Message, 1<<14)
	in := ep.Instance(instance)
	ep.Network().Go(ep, "test.inbox", func(t *Task) {
		in.Watch(t)
		for {
			for {
				msg, ok := in.TryRecv()
				if !ok {
					break
				}
				ch <- msg
			}
			if ep.Context().Err() != nil {
				return
			}
			t.Await(nil)
		}
	})
	return ch
}
