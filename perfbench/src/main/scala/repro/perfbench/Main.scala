package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}

import org.apache.spark.ListenerBusDrain
import org.apache.spark.sql.SparkSession

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }
}

/** The benchmark's JVM side. It runs one workload through the program's
  * public entry points and prints every metric as `metric <name> <value>
  * <unit>`, then one JSON line with the result. `run.py` builds it,
  * starts it, and keeps the metrics `BENCHMARK.json` declares.
  *
  * {{{
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *        [--tiny] [--trace-out <file>]
  *   Main --selftest
  * }}}
  */
object Main {

  final case class Args(
      workload: String = "",
      seed: Long = 1,
      seconds: Double = Double.NaN, // required for a workload run; run.py passes BENCHMARK.json's run_seconds
      trace: Boolean = false,
      tiny: Boolean = false,
      traceOut: Option[String] = None,
      selfTest: Boolean = false,
  )

  def parse(args: List[String], a: Args = Args()): Args = args match {
    case "--workload" :: v :: rest  => parse(rest, a.copy(workload = v))
    case "--seed" :: v :: rest      => parse(rest, a.copy(seed = v.toLong))
    case "--seconds" :: v :: rest   => parse(rest, a.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest     => parse(rest, a.copy(trace = v == "1"))
    case "--tiny" :: rest           => parse(rest, a.copy(tiny = true))
    case "--trace-out" :: v :: rest => parse(rest, a.copy(traceOut = Some(v)))
    case "--selftest" :: rest       => parse(rest, a.copy(selfTest = true))
    case Nil                        => a
    case other => throw new IllegalArgumentException(s"unexpected arguments: ${other.mkString(" ")}")
  }

  /** A query that takes longer counts as failed (it cannot be interrupted;
    * run.py stops the whole run after 170 s).
    */
  val QueryTimeoutS = 60

  /** Checked queries before timing starts. */
  val WarmUps = 2

  /** Set-ups per untraced run; setup_s is their median. */
  val SetupRepeats = 3

  /** Spark parallelism: local[k] with k at most 4 (the baseline machine's cores). */
  val Cores: Int = math.min(4, Runtime.getRuntime.availableProcessors)

  def session(cores: Int): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      // The settings the program's tests and jobs use.
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.sql.session.timeZone", "UTC")
      .config("spark.ui.enabled", "false")
      .getOrCreate()

  private val heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).toSeq

  private def resetHeapPeaks(): Unit = { System.gc(); heapPools.foreach(_.resetPeakUsage()) }

  /** Peak heap held beyond the allocation buffer: eden's peak is only its
    * size between collections, so the survivor and old pools are summed.
    * Taken over one query call, after a collection and a reset of the peaks.
    * It is a per-layer number: it depends on when the collector runs (under
    * G1, engine-microbatch gave about 0.76 or 1.38 GB from run to run).
    */
  private def peakHeapMb: Double =
    heapPools.filterNot(_.getName.contains("Eden")).map(_.getPeakUsage.getUsed).sum / (1024.0 * 1024.0)

  private val out = new java.io.PrintStream(new java.io.FileOutputStream(java.io.FileDescriptor.out), true, "UTF-8")

  private def metric(name: String, value: Double, unit: String): Unit =
    out.println(s"metric $name ${Json.num(value)} $unit")

  /** One timed query: its outcome and the `System.nanoTime` readings around the call. */
  final case class Ran[A](out: Try[A], startNs: Long, endNs: Long) {
    def seconds: Double = (endNs - startNs) / 1e9
  }

  /** Queries attempted and failed, and whether every check passed. */
  final class Tally {
    var attempted = 0
    var failed    = 0
    var gateOk    = true

    /** Runs one query, timed, and nothing else. */
    def query(p: Prepared): Ran[p.Out] = {
      attempted += 1
      val t0  = System.nanoTime()
      val res = Try(p.query())
      Ran(res, t0, System.nanoTime())
    }

    /** Checks a query's result, outside its timing. Returns the result and
      * its time, or None when it threw, timed out or was wrong.
      */
    def check(p: Prepared)(ran: Ran[p.Out]): Option[(p.Out, Double)] = {
      val dt = ran.seconds
      val (checked, checkS) = Workload.timed(ran.out.flatMap { o =>
        if (dt > QueryTimeoutS) Failure(new Check.Failed(f"timed out: $dt%.1f s > $QueryTimeoutS s"))
        else Try(p.verify(o)).map(_ => o)
      })
      System.err.println(f"perfbench: query $dt%.2f s, check $checkS%.2f s")
      checked match {
        case Success(o) => Some((o, dt))
        case Failure(e) =>
          failed += 1
          System.err.println(s"perfbench: query failed: $e")
          None
      }
    }

    def run(p: Prepared): Option[(p.Out, Double)] = check(p)(query(p))

    def gate(f: => Unit): Unit = Try(f) match {
      case Failure(e) => gateOk = false; System.err.println(s"perfbench: check failed: $e")
      case Success(_) =>
    }

    def correct: Boolean = gateOk && failed == 0
  }

  /** Warm-up before timing: checked queries, not timed. */
  private def warmUp(p: Prepared, tally: Tally): Unit = (1 to WarmUps).foreach(_ => tally.run(p))

  def main(argv: Array[String]): Unit = {
    val code =
      try {
        val a = parse(argv.toList)
        require(a.selfTest || !a.seconds.isNaN, "--seconds is required")
        if (a.selfTest) selfTest()
        else if (a.trace) traced(a, Workload.byName(a.workload))
        else untraced(a, Workload.byName(a.workload))
        0
      } catch {
        case e: Throwable => e.printStackTrace(); 1
      } finally SparkSession.getActiveSession.foreach(_.stop())
    sys.exit(code)
  }

  private def result(tally: Tally): Unit = {
    metric("failed_ratio", tally.failed.toDouble / math.max(1, tally.attempted), "ratio")
    out.println(s"""result {"correct": ${tally.correct}, "attempted": ${tally.attempted}, "failed": ${tally.failed}}""")
  }

  // ------------------------------------------------------------ untraced

  /** [[SetupRepeats]] set-ups, each from a stopped session, each inside a
    * `setup` span; the last one is kept.
    */
  private def setUp(a: Args, w: Workload, spans: Spans): (SparkSession, Prepared, Seq[Span]) = {
    var spark: SparkSession = null
    val setups = (1 to SetupRepeats).map { _ =>
      if (spark != null) spark.stop()
      spans.span("setup") { id =>
        spark = session(Cores)
        w.prepare(spark, a.seed, a.tiny, spans, id)
      }
    }
    (spark, setups.last._1, setups.map(_._2))
  }

  def untraced(a: Args, w: Workload): Unit = {
    val (spark, p, setups) = setUp(a, w, new Spans)
    val setupS = setups.map(_.durationS)
    val jobs   = new JobCounter
    spark.sparkContext.addSparkListener(jobs)
    val (ticks, events) = (p.ticks, p.events)
    val tally = new Tally
    val warmS = Workload.timed(warmUp(p, tally))._2
    System.err.println(f"perfbench: set-ups ${setupS.sum}%.1f s, warm-up $warmS%.1f s")

    final case class Sample(queryS: Double, jobs: Long)
    val samples  = Vector.newBuilder[Sample]
    var measured = 0.0
    while (measured < a.seconds) {
      System.gc() // the previous query's garbage is not collected on this one's clock
      val j0 = jobs.jobs.get
      val r  = tally.run(p)
      ListenerBusDrain.drain(spark.sparkContext)
      r.foreach { case (_, dt) =>
        samples += Sample(dt, jobs.jobs.get - j0)
        measured += dt
      }
      if (r.isEmpty && tally.failed > 3) measured = a.seconds // give up on a broken program
    }
    val ss = samples.result()
    def med(f: Sample => Double): Double = if (ss.isEmpty) 0.0 else Stats.median(ss.map(f))
    // The times are those of the fastest timed query. On a shared host, CPU
    // steal comes in phases of about half a minute that slow every query
    // they overlap by up to half; between them, queries repeat within a few
    // percent. The fastest query is clean unless a phase covers the whole
    // measurement, where a median of two or three is not.
    val bestS = if (ss.isEmpty) 0.0 else ss.map(_.queryS).min

    metric("setup_s", Stats.median(setupS), "s")
    metric("query_s", bestS, "s")
    metric("ticks_per_s", if (bestS > 0) ticks / bestS else 0.0, "1/s")
    metric("events_per_s", if (bestS > 0) events / bestS else 0.0, "1/s")
    metric("spark_jobs_per_tick", med(_.jobs.toDouble / ticks), "jobs")
    metric("queries_timed", ss.size.toDouble, "count")
    result(tally)
  }

  // ------------------------------------------------------------ traced

  def traced(a: Args, w: Workload): Unit = {
    val spans = new Spans
    val (spark, p, setups) = setUp(a, w, spans)
    val tally = new Tally
    // The paper listings L3–L14, bit for bit: a gate of every traced run,
    // kept out of the timed runs because it costs about 20 s.
    tally.gate(Check.listings(spark))
    warmUp(p, tally)

    // Untraced, traced, untraced: the overhead is the traced time over the
    // mean of the two untraced ones, which cancels a steady warm-up drift.
    // The heap peak and the `query` span cover the query call alone; the
    // checks run after them.
    resetHeapPeaks()
    val ran1   = tally.query(p)
    val peakMb = peakHeapMb
    val offS1  = tally.check(p)(ran1).map(_._2)
    System.gc()
    val queryId = spans.reserve()
    val trace   = new SparkTrace(spans, queryId)
    trace.attach(spark)
    val ran = tally.query(p)
    trace.detach(spark)
    val querySpan = spans.put(queryId, "query", spans.msAt(ran.startNs), spans.msAt(ran.endNs), -1)
    val onRun     = tally.check(p)(ran)
    System.gc()
    val offS2 = tally.run(p).map(_._2)
    val offS  = for (x <- offS1; y <- offS2) yield (x + y) / 2
    val probes = onRun.map { case (o, _) => p.probes(o) }.getOrElse(Map.empty)
    val queryS = querySpan.durationS
    val execS  = trace.executionNs.get / 1e9
    val ticks  = p.ticks.toDouble
    def child(name: String): Double =
      spans.all.find(s => s.parent == setups.last.id && s.name == name).fold(0.0)(_.durationS)
    def share(x: Double, of: Double): Double = if (of > 0) x / of else 0.0
    val isEngine = w == EngineMicrobatch

    // Single-threaded baseline: a fresh local[1] session, same input.
    spark.stop()
    val spark1 = session(1)
    val oneS   = tally.run(w.prepare(spark1, a.seed, a.tiny, new Spans, -1)).map(_._2)

    val compileS = probes.getOrElse("core.compile_s", 0.0)
    metric("nexmark.bids_s", child("bids"), "s")
    metric("nexmark.watermark_build_s", child("watermark"), "s")
    metric("core.register_s", child("register"), "s")
    metric("core.compile_share", share(compileS, queryS), "ratio")
    for ((n, unit) <- ProbeUnits) metric(n, probes.getOrElse(n, 0.0), unit)
    metric("spark.executions_per_tick", trace.executions.get / ticks, "count")
    metric("spark.exec_share", share(execS, queryS), "ratio")
    metric("spark.stages_per_tick", trace.stages.get / ticks, "count")
    metric("spark.tasks_per_tick", trace.tasks.get / ticks, "count")
    metric("spark.task_run_share", share(trace.taskRunMs.get / 1000.0, execS), "ratio")
    metric("spark.result_bytes", trace.resultBytes.get.toDouble, "B")
    metric("spark.shuffle_write_bytes", trace.shuffleWriteB.get.toDouble, "B")
    metric("spark.speedup_local1", (for (o <- oneS; f <- offS) yield o / f).getOrElse(0.0), "ratio")
    metric("core.emit_self_s", queryS - execS - compileS, "s")
    metric("engine.jobs_per_batch", if (isEngine) trace.jobs.get / ticks else 0.0, "count")
    metric("engine.executions_per_batch", if (isEngine) trace.executions.get / ticks else 0.0, "count")
    metric("trace.overhead_ratio", offS.fold(0.0)(queryS / _), "ratio")
    metric("peak_heap_mb", peakMb, "MB")

    a.traceOut.foreach { f =>
      val path = Paths.get(f)
      Files.createDirectories(path.getParent)
      Files.write(path, Trace.toJson(s"seed-${a.seed}", w.name, spans.all).getBytes(StandardCharsets.UTF_8))
    }
    result(tally)
  }

  /** Every metric a workload's probes can report, with its unit. A
    * workload that never calls a layer reports that layer's metrics as 0.
    */
  private val ProbeUnits = Seq(
    "core.compile_s" -> "s", "tvr.snapshot_ms_per_tick" -> "ms", "tvr.bagdiff_s" -> "s",
    "tvr.watermark_at_ns" -> "ns", "core.productive_tick_ratio" -> "ratio",
    "core.changelog_rows" -> "count", "core.undo_rows" -> "count",
    "engine.max_state_windows" -> "count", "engine.max_retained_rows" -> "count",
    "engine.dropped_rows" -> "count", "engine.emitted_rows" -> "count")

  // ------------------------------------------------------------ self-test

  /** The checker's self-test: on each workload that emits a changelog, a
    * correct changelog passes and a corrupted one fails.
    */
  def selfTest(): Unit = {
    val spark = session(Cores)
    for (w <- Seq(Q7Stream, HopWideExt7)) {
      val p = w.prepare(spark, 1, tiny = true, new Spans, -1).asInstanceOf[SqlPrepared]
      Check.selfTest(Check.changes(p.query()), p.verifyChanges)
      out.println(s"selftest ${w.name} ok")
    }
    out.println("""result {"correct": true, "attempted": 2, "failed": 0}""")
  }
}
