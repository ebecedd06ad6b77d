package org.apache.spark

/** Waits until every listener event posted so far has been delivered.
  *
  * Listener callbacks run on Spark's asynchronous listener bus, so counts
  * read right after an action can miss its last events. Spark's own test
  * suites flush the bus this way; the method is package-private, hence
  * this one-line bridge in Spark's package.
  */
object ListenerBusDrain {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
