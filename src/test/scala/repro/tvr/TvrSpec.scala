package repro.tvr

import org.apache.spark.sql.types._

import repro.SparkSpec

class TvrSpec extends SparkSpec {
  import spark.implicits._

  private val schema = StructType(Seq(
    StructField("k", StringType), StructField("v", IntegerType)))

  private def tvr(rows: (Long, Boolean, (String, Int))*): Tvr =
    Tvr.ofRows(spark, schema, rows.map { case (p, u, (k, v)) => (p, u, Seq[Any](k, v)) })

  test("snapshotAt applies inserts up to p") {
    val t = tvr((10L, false, ("a", 1)), (20L, false, ("b", 2)))
    assert(t.snapshotAt(10).collect().map(_.getString(0)).toSeq == Seq("a"))
    assert(t.snapshotAt(25).collect().map(_.getString(0)).sorted.toSeq == Seq("a", "b"))
  }

  test("snapshotAt before any change is empty") {
    val t = tvr((10L, false, ("a", 1)))
    assert(t.snapshotAt(5).count() == 0)
  }

  test("a retraction removes one instance of a row") {
    val t = tvr(
      (10L, false, ("a", 1)), (11L, false, ("a", 1)), (20L, true, ("a", 1)))
    assert(t.snapshotAt(15).count() == 2)
    assert(t.snapshotAt(20).count() == 1)
  }

  test("insert-delete-insert sequences track multiplicity over time") {
    val t = tvr(
      (10L, false, ("x", 1)), (20L, true, ("x", 1)), (30L, false, ("x", 1)))
    assert(t.snapshotAt(10).count() == 1)
    assert(t.snapshotAt(20).count() == 0)
    assert(t.snapshotAt(30).count() == 1)
  }

  test("dataColumns excludes the changelog bookkeeping columns") {
    assert(tvr().dataColumns == Seq("k", "v"))
  }

  test("changePtimes lists distinct change instants in order") {
    val t = tvr((30L, false, ("c", 3)), (10L, false, ("a", 1)), (10L, false, ("b", 2)))
    assert(t.changePtimes == Seq(10L, 30L))
  }

  test("tickPtimes merges data changes with watermark advances") {
    val wm = WatermarkTimeline(Vector((15L, 5L), (40L, 30L)))
    val t  = tvr((10L, false, ("a", 1))).withWatermark("k", wm) // column irrelevant here
    assert(t.tickPtimes == Seq(10L, 15L, 40L))
  }

  test("fromStatic wraps a DataFrame as a single-snapshot TVR") {
    val t = Tvr.fromStatic(Seq(("a", 1), ("b", 2)).toDF("k", "v"))
    assert(t.snapshotAt(0).count() == 2)
    assert(t.snapshot.count() == 2)
    assert(t.changePtimes == Seq(0L))
  }

  test("appendOnly turns an arrival log into an insert-only changelog") {
    val arrivals = Seq(("a", 1, Times.ts(100L)), ("b", 2, Times.ts(200L)))
      .toDF("k", "v", "arrival")
    val t = Tvr.appendOnly(arrivals, "arrival")
    assert(t.dataColumns == Seq("k", "v"))
    assert(t.snapshotAt(100).count() == 1)
    assert(t.snapshotAt(200).count() == 2)
  }

  test("an append-only changelog's snapshots equal its netted snapshots") {
    val t = tvr((10L, false, ("a", 1)), (10L, false, ("a", 1)), (20L, false, ("b", 2)))
    assert(t.appendOnly)
    val ticks = Seq(5L, 10L, 15L, 20L)
    def bag(df: org.apache.spark.sql.DataFrame) = df.collect().map(_.toSeq).groupBy(identity).view.mapValues(_.length).toMap
    val snaps = bag(t.snapshotsAt(ticks))
    assert(snaps == bag(t.copy(appendOnly = false).snapshotsAt(ticks)))
    assert(snaps.values.sum == 2 + 2 + 3)
    assert(!tvr((10L, false, ("a", 1)), (20L, true, ("a", 1))).appendOnly)
  }

  test("snapshot equals snapshotAt(+inf)") {
    val t = tvr((10L, false, ("a", 1)), (20L, true, ("a", 1)), (30L, false, ("b", 2)))
    assert(t.snapshot.collect().map(_.getString(0)).toSeq == Seq("b"))
  }

  test("changelog without bookkeeping columns is rejected") {
    intercept[IllegalArgumentException] {
      Tvr(Seq(("a", 1)).toDF("k", "v"))
    }
  }

  test("withWatermark requires the event time column to exist") {
    intercept[IllegalArgumentException] {
      tvr((10L, false, ("a", 1))).withWatermark("missing", WatermarkTimeline.empty)
    }
  }
}
