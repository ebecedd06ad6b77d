package repro.tvr

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.logical.Aggregate
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._
import org.scalacheck.{Gen, Prop}

import repro.{PropSupport, SparkSpec}

class TvrSpec extends SparkSpec with PropSupport {
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

  /** What `changePtimes` must equal: the sorted distinct of the
    * changelog's ptimes, collected to the driver.
    */
  private def collectedPtimes(t: Tvr): Seq[Long] =
    t.changelog.collect().map(r => Times.ms(r.getAs[java.sql.Timestamp](Tvr.PtimeCol))).distinct.sorted.toSeq

  private def assertTicks(t: Tvr): Unit = {
    val ticks = t.changePtimes
    assert(ticks == collectedPtimes(t))
    assert(ticks.zip(ticks.drop(1)).forall { case (a, b) => a < b }, s"not strictly ascending: $ticks")
  }

  test("changePtimes merges the ptimes of every partition") {
    val rows   = (1 to 12).map(i => (10L * (i % 3), false, (s"k$i", i)))
    val t      = tvr(rows: _*)
    val spread = t.copy(changelog = t.changelog.repartition(4))
    // Precondition: some ptime is in more than one partition.
    val perPartition = spread.changelog.select(col(Tvr.PtimeCol)).rdd
      .mapPartitions(rs => Iterator.single(rs.map(_.getTimestamp(0).getTime).toSet)).collect()
    assert(perPartition.count(_.nonEmpty) > 1)
    assert(perPartition.flatten.groupBy(identity).exists(_._2.length > 1))
    assertTicks(spread)
    assert(spread.changePtimes == Seq(0L, 10L, 20L))
  }

  test("changePtimes counts a retraction's ptime as a change") {
    val t = tvr((30L, false, ("a", 1)), (10L, false, ("a", 1)), (40L, true, ("a", 1)), (30L, true, ("a", 1)))
    assert(t.retracts)
    assertTicks(t)
    assert(t.changePtimes == Seq(10L, 30L, 40L))
  }

  test("changePtimes of an empty changelog is empty") {
    val t = tvr()
    assertTicks(t)
    assert(t.changePtimes.isEmpty)
    assert(t.copy(changelog = t.changelog.repartition(3)).changePtimes.isEmpty)
  }

  test("changePtimes is the sorted distinct of the collected ptimes, however partitioned") {
    val row = Gen.zip(Gen.choose(0L, 5L), Gen.oneOf(false, true), Gen.oneOf("a", "b", "c"), Gen.choose(0, 3))
    val gen = Gen.zip(Gen.listOf(row), Gen.choose(1, 5))
    checkProp(Prop.forAll(gen) { case (rows, partitions) =>
      val t      = tvr(rows.map { case (p, u, k, v) => (p * 1000, u, (k, v)) }: _*)
      val spread = t.copy(changelog = t.changelog.repartition(partitions))
      val ticks  = spread.changePtimes
      ticks == collectedPtimes(t) && ticks == ticks.distinct.sorted && spread.retracts == rows.exists(_._2)
    }, minTests = 20)
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

  /** Each tick's snapshot, netted here one tick at a time: the bag of
    * rows inserted minus those retracted up to the tick, each row keyed
    * with its tick.
    */
  private def nettedPerTick(t: Tvr, ticks: Seq[Long]): Map[Seq[Any], Int] = {
    val changes = t.changelog.collect().toSeq.map { r =>
      (Times.ms(r.getAs[java.sql.Timestamp](Tvr.PtimeCol)), r.getAs[Boolean](Tvr.UndoCol),
        t.dataColumns.map(c => r.getAs[Any](c)))
    }
    ticks.flatMap { p =>
      changes.filter(_._1 <= p)
        .groupMapReduce(_._3)(c => if (c._2) -1 else 1)(_ + _)
        .collect { case (row, n) if n > 0 => (row :+ p) -> n }
    }.toMap
  }

  private def bag(df: DataFrame): Map[Seq[Any], Int] =
    df.collect().toSeq.map(_.toSeq).groupMapReduce(identity)(_ => 1)(_ + _)

  test("an append-only changelog's snapshots equal its netted snapshots") {
    val t = tvr((10L, false, ("a", 1)), (10L, false, ("a", 1)), (20L, false, ("b", 2)))
    assert(!t.retracts)
    val ticks = Seq(5L, 10L, 15L, 20L)
    val snaps = bag(t.snapshotsAt(ticks))
    assert(snaps == nettedPerTick(t, ticks))
    assert(snaps.values.sum == 2 + 2 + 3)
    // A changelog that retracts is netted; built with the case-class
    // constructor, one that does not is not.
    val r = tvr((10L, false, ("a", 1)), (10L, false, ("a", 1)), (20L, true, ("a", 1)), (20L, false, ("b", 2)))
    assert(r.retracts)
    assert(bag(r.snapshotsAt(ticks)) == nettedPerTick(r, ticks))
    val plain = Tvr(t.changelog)
    assert(!plain.retracts)
    assert(plain.snapshotsAt(ticks).queryExecution.analyzed.collect { case a: Aggregate => a }.isEmpty)
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
