// Package consumer mimics bench/_src: its own module, compiled against the
// surface under test, read by deadcode as syntax only.
package consumer

import "deadfix/internal/dead"

var _ = dead.UsedByConsumer()
