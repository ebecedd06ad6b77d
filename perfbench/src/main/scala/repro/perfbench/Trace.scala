package repro.perfbench

import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener

/** A timed interval. Times are milliseconds since the epoch, fractional,
  * so that benchmark-side spans (taken from `System.nanoTime`) and Spark's
  * listener timestamps share one axis. `parent` is the id of the span that
  * caused it, -1 for a root.
  */
final case class Span(id: Int, name: String, startMs: Double, endMs: Double, parent: Int) {
  def durationS: Double = (endMs - startMs) / 1000.0
}

/** In-memory span recorder; spans are written out once, when the run ends. */
final class Spans {
  private val originNs    = System.nanoTime()
  private val originMs    = System.currentTimeMillis().toDouble
  private val recorded    = mutable.ArrayBuffer.empty[Span]

  /** A `System.nanoTime` reading on the span axis. */
  def msAt(nanoTime: Long): Double = originMs + (nanoTime - originNs) / 1e6

  def nowMs: Double = msAt(System.nanoTime())

  def add(name: String, startMs: Double, endMs: Double, parent: Int): Span = put(reserve(), name, startMs, endMs, parent)

  /** An id for a span whose interval is known only later, so that its
    * children can name it as their parent; [[put]] records it.
    */
  def reserve(): Int = synchronized { recorded += null; recorded.size - 1 }

  def put(id: Int, name: String, startMs: Double, endMs: Double, parent: Int): Span = {
    val s = Span(id, name, startMs, endMs, parent)
    synchronized { recorded(id) = s }
    s
  }

  /** Runs `f` inside a span; returns its result and the span. */
  def span[A](name: String, parent: Int = -1)(f: Int => A): (A, Span) = {
    val id    = reserve()
    val start = nowMs
    val a     = f(id)
    (a, put(id, name, start, nowMs, parent))
  }

  def all: Seq[Span] = synchronized(recorded.filter(_ != null).toSeq)
}

/** Counts Spark jobs. This is the only listener of an untraced run: one
  * counter increment per job.
  */
final class JobCounter extends SparkListener {
  val jobs = new AtomicLong
  override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
}

/** The traced run's listeners: every Spark job and every query execution
  * becomes a child span of `parent`, and stage and task metrics are
  * summed. Registered only around the traced query.
  */
final class SparkTrace(spans: Spans, parent: Int) extends SparkListener with QueryExecutionListener {
  val executions       = new AtomicLong
  val executionNs      = new AtomicLong
  val jobs             = new AtomicLong
  val stages           = new AtomicLong
  val tasks            = new AtomicLong
  val taskRunMs        = new AtomicLong
  val resultBytes      = new AtomicLong
  val shuffleWriteB    = new AtomicLong
  private val jobStart = new java.util.concurrent.ConcurrentHashMap[Int, java.lang.Long]

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = {
    executions.incrementAndGet()
    executionNs.addAndGet(durationNs)
    val end = spans.nowMs
    spans.add(s"spark.execution.$funcName", end - durationNs / 1e6, end, parent)
  }

  /** Required by the interface; a failed execution fails its query, which the tally counts. */
  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    jobs.incrementAndGet()
    jobStart.put(e.jobId, e.time)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(jobStart.remove(e.jobId)).foreach { t =>
      spans.add(s"spark.job.${e.jobId}", t.toDouble, e.time.toDouble, parent)
    }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = stages.incrementAndGet()

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    tasks.incrementAndGet()
    Option(e.taskMetrics).foreach { m =>
      taskRunMs.addAndGet(m.executorRunTime)
      resultBytes.addAndGet(m.resultSize)
      shuffleWriteB.addAndGet(m.shuffleWriteMetrics.bytesWritten)
    }
  }

  def attach(spark: SparkSession): Unit = {
    spark.sparkContext.addSparkListener(this)
    spark.listenerManager.register(this)
  }

  def detach(spark: SparkSession): Unit = {
    ListenerBusDrain.drain(spark.sparkContext)
    spark.listenerManager.unregister(this)
    spark.sparkContext.removeSparkListener(this)
  }
}

object Trace {
  /** The spans of one run as JSON: `run_id` is shared by every workload
    * run with the same seed.
    */
  def toJson(runId: String, workload: String, spans: Seq[Span]): String = {
    val items = spans.sortBy(_.startMs).map { s =>
      s"""    {"id": ${s.id}, "name": ${Json.str(s.name)}, "start_ms": ${Json.num(s.startMs)}, """ +
        s""""end_ms": ${Json.num(s.endMs)}, "parent": ${s.parent}}"""
    }
    s"""{"run_id": ${Json.str(runId)}, "workload": ${Json.str(workload)}, "spans": [
       |${items.mkString(",\n")}
       |]}
       |""".stripMargin
  }
}

/** Just enough JSON writing for the result line and the span file. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  def num(d: Double): String =
    if (d.isNaN || d.isInfinite) throw new IllegalArgumentException(s"not a JSON number: $d")
    else if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString
    else d.toString
}
