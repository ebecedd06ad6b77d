package org.apache.spark

import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** The Spark jobs a block of code starts, their tasks, and the shuffle
  * bytes the tasks write. It lives in Spark's package to wait for the
  * listener bus, which delivers events after the jobs end.
  */
final case class JobTally(jobs: Int, tasks: Int, shuffleWriteBytes: Long)

object JobTally {
  def of[A](sc: SparkContext)(f: => A): (A, JobTally) = {
    val jobs  = new AtomicInteger
    val tasks = new AtomicInteger
    val bytes = new AtomicLong
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
        tasks.incrementAndGet()
        Option(e.taskMetrics).foreach(m => bytes.addAndGet(m.shuffleWriteMetrics.bytesWritten))
      }
    }
    sc.listenerBus.waitUntilEmpty()
    sc.addSparkListener(listener)
    try {
      val a = f
      sc.listenerBus.waitUntilEmpty()
      (a, JobTally(jobs.get, tasks.get, bytes.get))
    } finally sc.removeSparkListener(listener)
  }
}
