package repro.core

import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.experiments.Experiments
import repro.paperexample.PaperDataset
import repro.tvr.Times

/** Reproduces every result listing of the paper's Section 4 / 6 worked
  * example (Listings 3–14) bit-for-bit on the Section 4 dataset. The
  * paper's rows are typed once, in `Experiments.listings`.
  */
class Q7ListingsSpec extends SparkSpec {

  private lazy val session: StreamSqlSession = {
    val s = new StreamSqlSession(spark)
    s.registerStream("Bid", PaperDataset.bidTvr(spark))
    s
  }

  private def fmtCell(v: Any): String = v match {
    case t: java.sql.Timestamp => Times.fmt(Times.ms(t))
    case other                 => String.valueOf(other)
  }

  /** Collected rows as `H:MM`-formatted tuples, sorted for set compare. */
  private def rows(df: DataFrame): Seq[Seq[String]] =
    df.collect().toSeq.map(_.toSeq.map(fmtCell)).sortBy(_.mkString("|"))

  private def at(hm: String): Long = Times.hm(hm)

  /** The twelve listings, computed once; each test below asserts one
    * equal to the paper's rows.
    */
  private lazy val listings = Experiments.listings(spark).map(l => l.id -> l).toMap

  private def assertListing(id: String): Unit = {
    val l = listings(id)
    assert(l.produced == l.paper, l.rendered)
  }

  // ---------------------------------------------------------------- L3/L4

  test("Listing 3: Q7 table view over the full dataset at 8:21") { assertListing("L3") }

  test("Listing 4: Q7 table view over the partial dataset at 8:13") { assertListing("L4") }

  test("Q7 table view just before any bid arrives is empty") {
    assert(rows(session.sql(PaperDataset.q7Sql, at("8:07"))).isEmpty)
  }

  test("Q7 table view at 8:08 sees only bid A") {
    assert(rows(session.sql(PaperDataset.q7Sql, at("8:08"))) == Seq(
      Seq("8:00", "8:10", "8:07", "2", "A")))
  }

  // ---------------------------------------------------------------- L5..L8

  test("Listing 5: Tumble TVF assigns each bid to its 10-minute window") { assertListing("L5") }

  test("Listing 6: Tumble + GROUP BY computes per-window max price") { assertListing("L6") }

  test("Listing 7: Hop TVF assigns each bid to two overlapping windows") { assertListing("L7") }

  test("Listing 8: Hop + GROUP BY computes per-hop-window max price") { assertListing("L8") }

  // ---------------------------------------------------------------- L9

  test("Listing 9: EMIT STREAM renders the Q7 changelog with undo/ptime/ver") { assertListing("L9") }

  // ---------------------------------------------------------------- L10..L12

  test("Listing 10: EMIT AFTER WATERMARK at 8:13 materializes nothing") { assertListing("L10") }

  test("Listing 11: EMIT AFTER WATERMARK at 8:16 materializes the first window") { assertListing("L11") }

  test("Listing 12: EMIT AFTER WATERMARK at 8:21 materializes both windows") { assertListing("L12") }

  // ---------------------------------------------------------------- L13

  test("Listing 13: EMIT STREAM AFTER WATERMARK emits one final row per window") { assertListing("L13") }

  // ---------------------------------------------------------------- L14

  test("Listing 14: EMIT STREAM AFTER DELAY 6 minutes coalesces updates") { assertListing("L14") }

  // ------------------------------------------------- general invariants

  test("table view equals the folded EMIT STREAM changelog at every tick") {
    for (p <- Seq("8:08", "8:13", "8:16", "8:21")) {
      val table  = rows(session.sql(PaperDataset.q7Sql, at(p)))
      val stream = session.sql(PaperDataset.q7Sql + " EMIT STREAM", at(p))
      val folded = stream.collect().toSeq
        .foldLeft(Map.empty[Seq[String], Int].withDefaultValue(0)) { (bag, r) =>
          val key  = r.toSeq.dropRight(3).map(fmtCell)
          val undo = r.getBoolean(r.length - 3)
          bag.updated(key, bag(key) + (if (undo) -1 else 1))
        }
        .filter(_._2 > 0)
        .flatMap { case (k, n) => Seq.fill(n)(k) }
        .toSeq.sortBy(_.mkString("|"))
      assert(table == folded, s"mismatch at $p")
    }
  }

  test("EMIT STREAM AFTER WATERMARK rows carry watermark-passage ptimes, not arrival ptimes") {
    val df = session.sql(PaperDataset.q7Sql + " EMIT STREAM AFTER WATERMARK", at("8:21"))
    val ptimes = df.collect().toSeq.map(r => fmtCell(r.get(r.length - 2)))
    assert(ptimes == Seq("8:16", "8:21"))
  }
}
